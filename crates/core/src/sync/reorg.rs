//! The reorg engine: unwind to a fork point and connect a better branch.
//!
//! Works over any [`ValidatingNode`], so `EbvNode` and `BaselineNode`
//! share one implementation. After every unwind step the node's
//! invariants (`check_invariants`) are asserted, so a corrupt undo path
//! surfaces immediately instead of as a mysterious validation failure a
//! thousand blocks later.
//!
//! The engine follows the longest-chain rule at the granularity this
//! repository mines at (every experiment uses `bits = 0`, where chain
//! work is proportional to length): a candidate branch must make the
//! chain strictly longer, otherwise [`ReorgError::NotBetter`].

use super::node::ValidatingNode;

/// Why a reorg attempt failed.
#[derive(Debug)]
pub enum ReorgError<E> {
    /// The requested fork point is above the current tip.
    ForkAboveTip { fork: u32, tip: u32 },
    /// The candidate branch would not make the chain longer.
    NotBetter {
        current_len: u32,
        candidate_len: u32,
    },
    /// The branch's first block does not attach at the fork point, or its
    /// internal prev-hash links are broken at the given branch offset.
    BranchDetached { offset: usize },
    /// A branch block failed validation at `height`. If `restored` the
    /// original chain was reconnected; otherwise the node sits at the
    /// fork point (the caller supplied no — or an unusable — old branch).
    InvalidBranch { height: u32, err: E, restored: bool },
    /// Disconnecting the tip failed or an invariant broke mid-unwind.
    /// The node's state is suspect; the sync driver treats this as fatal.
    Unwind(String),
}

impl<E: std::fmt::Debug> std::fmt::Display for ReorgError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReorgError::ForkAboveTip { fork, tip } => {
                write!(f, "fork height {fork} is above the current tip {tip}")
            }
            ReorgError::NotBetter {
                current_len,
                candidate_len,
            } => write!(
                f,
                "candidate branch ({candidate_len} blocks) is not longer than the \
                 current branch ({current_len} blocks)"
            ),
            ReorgError::BranchDetached { offset } => {
                write!(f, "branch prev-hash link broken at branch offset {offset}")
            }
            ReorgError::InvalidBranch {
                height,
                err,
                restored,
            } => write!(
                f,
                "branch block at height {height} failed validation ({err:?}); original \
                 chain {}",
                if *restored {
                    "restored"
                } else {
                    "NOT restored"
                }
            ),
            ReorgError::Unwind(msg) => write!(f, "unwind failed: {msg}"),
        }
    }
}

impl<E: std::fmt::Debug> std::error::Error for ReorgError<E> {}

/// Unwind `node` back to `fork_height`, asserting invariants after every
/// step.
fn unwind_to<N: ValidatingNode>(node: &mut N, fork_height: u32) -> Result<(), String> {
    while node.tip_height() > fork_height {
        match node.disconnect_tip_block() {
            Ok(Some(_)) => {}
            Ok(None) => return Err("hit genesis before the fork point".to_string()),
            Err(e) => {
                return Err(format!("disconnect failed at height {}: {e:?}", {
                    node.tip_height()
                }))
            }
        }
        node.check_invariants().map_err(|msg| {
            format!(
                "invariant violated after unwind to {}: {msg}",
                node.tip_height()
            )
        })?;
    }
    Ok(())
}

/// Switch `node` onto `branch`, which attaches at `fork_height` (its first
/// block's `prev_block_hash` must be the header at `fork_height`).
///
/// `old_branch` holds the currently connected blocks above the fork
/// point, lowest height first; it is used to restore the original chain
/// if the candidate branch turns out to be invalid. Pass an empty slice
/// if the old blocks are unavailable — then a failed reorg leaves the
/// node at the fork point (reported via `restored: false`).
///
/// On success returns the new tip height.
pub fn reorg_to<N: ValidatingNode>(
    node: &mut N,
    fork_height: u32,
    branch: &[N::Block],
    old_branch: &[N::Block],
) -> Result<u32, ReorgError<N::Error>> {
    let tip = node.tip_height();
    if fork_height > tip {
        return Err(ReorgError::ForkAboveTip {
            fork: fork_height,
            tip,
        });
    }
    let current_len = tip - fork_height;
    let candidate_len = branch.len() as u32;
    if candidate_len <= current_len {
        return Err(ReorgError::NotBetter {
            current_len,
            candidate_len,
        });
    }
    // Check attachment and internal linkage before touching node state.
    let Some(fork_hash) = node.header_hash_at(fork_height) else {
        return Err(ReorgError::ForkAboveTip {
            fork: fork_height,
            tip,
        });
    };
    let mut prev = fork_hash;
    for (offset, block) in branch.iter().enumerate() {
        if N::block_prev_hash(block) != prev {
            return Err(ReorgError::BranchDetached { offset });
        }
        prev = N::block_hash(block);
    }

    unwind_to(node, fork_height).map_err(ReorgError::Unwind)?;

    // The branch connects as one window, which keeps exactly the blocks
    // below the first rejected one.
    if let (_, Err(err)) = node.connect_blocks(branch) {
        let failed_height = node.tip_height() + 1;
        // Roll the partial branch back off and reconnect the original
        // chain, also as one window, if the caller gave us its blocks.
        unwind_to(node, fork_height).map_err(ReorgError::Unwind)?;
        let restored = (!old_branch.is_empty() || current_len == 0)
            && node.connect_blocks(old_branch).1.is_ok();
        return Err(ReorgError::InvalidBranch {
            height: failed_height,
            err,
            restored,
        });
    }
    Ok(node.tip_height())
}
