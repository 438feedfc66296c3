//! Minimal CLI parsing shared by the figure binaries (no external deps).

use ebv_core::{BaselineConfig, EbvConfig};

/// Common knobs; each binary overrides the defaults that matter to it.
#[derive(Clone, Debug)]
pub struct CommonArgs {
    pub blocks: u32,
    pub seed: u64,
    /// Cache budget in bytes for the baseline status database.
    pub budget: usize,
    /// Injected disk latency per random access, microseconds.
    pub latency_us: u64,
    /// Repetitions for multi-run figures.
    pub runs: usize,
    /// SV worker threads on both node types (`None` = all cores, 1 =
    /// inline).
    pub workers: Option<usize>,
    /// Worker counts to sweep (figures that support it; fig16 re-runs its
    /// comparison once per count).
    pub sweep_workers: Option<Vec<usize>>,
    /// Also run snapshot-parallel IBD with this many interval workers
    /// (figures that support it; fig17).
    pub parallel_ibd: Option<usize>,
    /// Write machine-readable results (per-phase ns, verifies/sec) to this
    /// path, for figures that support it. Implies telemetry on: fig16 and
    /// fig17 embed a telemetry snapshot.
    pub json: Option<String>,
    /// Compare this run against a committed benchmark JSON and exit
    /// nonzero on regression (figures that support it; syncbench gates
    /// time-to-ban).
    pub gate: Option<String>,
    /// Write a telemetry export after the run: Prometheus text to this
    /// path and a JSON snapshot to `<path>.json`.
    pub metrics_out: Option<String>,
    /// Record a JSONL time series of interval metric deltas to this path
    /// (one line per phase the figure ticks). Implies telemetry on.
    pub timeseries_out: Option<String>,
}

impl CommonArgs {
    /// Parse `std::env::args`, starting from figure-specific defaults.
    ///
    /// Exits with a usage message on `--help` or a malformed flag.
    pub fn parse(defaults: CommonArgs) -> CommonArgs {
        let mut out = defaults.clone();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = |i: usize| -> &str {
                args.get(i + 1).map(String::as_str).unwrap_or_else(|| {
                    eprintln!("missing value for {flag}");
                    std::process::exit(2);
                })
            };
            match flag {
                "--blocks" => {
                    out.blocks = parse_num(value(i), flag);
                    i += 2;
                }
                "--seed" => {
                    out.seed = parse_num(value(i), flag);
                    i += 2;
                }
                "--budget" => {
                    out.budget = parse_num::<u64>(value(i), flag) as usize;
                    i += 2;
                }
                "--latency-us" => {
                    out.latency_us = parse_num(value(i), flag);
                    i += 2;
                }
                "--runs" => {
                    out.runs = parse_num::<u64>(value(i), flag) as usize;
                    i += 2;
                }
                "--workers" => {
                    out.workers = Some(parse_num::<u64>(value(i), flag) as usize);
                    i += 2;
                }
                "--sweep-workers" => {
                    let counts: Vec<usize> = value(i)
                        .split(',')
                        .map(|part| parse_num::<u64>(part.trim(), flag) as usize)
                        .collect();
                    if counts.is_empty() || counts.contains(&0) {
                        eprintln!("--sweep-workers wants a comma-separated list of counts ≥ 1");
                        std::process::exit(2);
                    }
                    out.sweep_workers = Some(counts);
                    i += 2;
                }
                "--parallel-ibd" => {
                    out.parallel_ibd = Some(parse_num::<u64>(value(i), flag) as usize);
                    i += 2;
                }
                "--json" => {
                    out.json = Some(value(i).to_string());
                    i += 2;
                }
                "--gate" => {
                    out.gate = Some(value(i).to_string());
                    i += 2;
                }
                "--metrics-out" => {
                    out.metrics_out = Some(value(i).to_string());
                    i += 2;
                }
                "--timeseries-out" => {
                    out.timeseries_out = Some(value(i).to_string());
                    i += 2;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --blocks N --seed S --budget BYTES --latency-us US --runs R \
                         --workers W --sweep-workers W1,W2,… \
                         --parallel-ibd N --json PATH --gate PATH --metrics-out PATH \
                         --timeseries-out JSONL\n\
                         (--metrics-out writes Prometheus text to PATH and a JSON \
                         snapshot to PATH.json; --timeseries-out records per-phase \
                         metric deltas as JSONL)\n\
                         defaults: {defaults:?}"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other} (try --help)");
                    std::process::exit(2);
                }
            }
        }
        out
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric value {s:?} for {flag}");
        std::process::exit(2);
    })
}

impl Default for CommonArgs {
    fn default() -> Self {
        // Scaled to the paper's regime: the cache budget is ~15 % of the
        // final UTXO-set size (paper: 500 MB limit vs 4.3 GB set) and the
        // injected latency is a ~5×-scaled-down HDD random access (paper:
        // LevelDB on a 2 TB HDD).
        CommonArgs {
            blocks: 1040, // 26 quarters × 40, 13 periods × 80
            seed: 1,
            budget: 24 << 10,
            latency_us: 1000,
            runs: 5,
            workers: None,
            sweep_workers: None,
            parallel_ibd: None,
            json: None,
            gate: None,
            metrics_out: None,
            timeseries_out: None,
        }
    }
}

impl CommonArgs {
    /// The EBV validator configuration these flags select.
    pub fn ebv_config(&self) -> EbvConfig {
        EbvConfig {
            workers: self.workers,
            ..EbvConfig::default()
        }
    }

    /// The baseline validator configuration these flags select.
    pub fn baseline_config(&self) -> BaselineConfig {
        BaselineConfig {
            workers: self.workers,
            ..BaselineConfig::default()
        }
    }

    /// Enable telemetry collection when `--json`, `--metrics-out` or
    /// `--timeseries-out` was given: each writes telemetry the run must have
    /// recorded (`--json` embeds a snapshot). Call at the top of a figure
    /// binary's `main`, before validation starts.
    pub fn enable_telemetry(&self) {
        if self.json.is_some() || self.metrics_out.is_some() || self.timeseries_out.is_some() {
            ebv_telemetry::set_enabled(true);
        }
    }

    /// Open the time-series recorder requested by `--timeseries-out`
    /// (`None` when the flag is absent). Call `tick(label)` on it at each
    /// phase boundary; it writes one delta line per tick.
    pub fn timeseries(&self) -> Option<ebv_telemetry::TimeseriesRecorder> {
        let path = self.timeseries_out.as_deref()?;
        match ebv_telemetry::TimeseriesRecorder::create(std::path::Path::new(path)) {
            Ok(rec) => Some(rec),
            Err(e) => {
                eprintln!("error opening timeseries output {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Write the telemetry export requested by `--metrics-out`: Prometheus
    /// text at the given path, JSON snapshot at `<path>.json`.
    pub fn write_metrics(&self) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        let json_path = format!("{path}.json");
        ebv_telemetry::write_metrics_files(
            Some(std::path::Path::new(path)),
            Some(std::path::Path::new(&json_path)),
        )
        .unwrap_or_else(|e| {
            eprintln!("error writing metrics to {path}: {e}");
            std::process::exit(1);
        });
        println!("\nwrote metrics to {path} and {json_path}");
    }
}
