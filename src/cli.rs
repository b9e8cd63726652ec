//! Command-line interface logic for the `soctdc` binary.
//!
//! Kept in the library so argument parsing and command dispatch are unit
//! testable; the binary is a thin wrapper. No external argument-parsing
//! dependency — the grammar is small and fixed.

use std::fmt;

use crate::model::benchmarks::Design;
use crate::model::itc02::write_itc02;
use crate::planner::{
    export_image, parse_plan, planner_for, verify_image, write_plan, Budget, DecisionConfig,
    Engine, Job, JobError, PlanControl, PlanRequest, SocSource,
};
use crate::selenc::{generate_verilog, CoreProfile, ProfileConfig, SliceCode, SliceStats};
use crate::tam::{render_gantt, ArchitectureOptions, CostModel};

/// A parsed `soctdc` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Plan an SOC test (`soctdc plan …`).
    Plan(PlanArgs),
    /// Print a core's (w, m) lookup table (`soctdc profile …`).
    Profile(ProfileArgs),
    /// List the built-in benchmark designs (`soctdc designs`).
    Designs,
    /// Convert between the simple and ITC'02 formats (`soctdc convert …`).
    Convert(ConvertArgs),
    /// Emit decompressor Verilog (`soctdc rtl …`).
    Rtl(RtlArgs),
    /// Print a core's slice statistics (`soctdc stats …`).
    Stats(StatsArgs),
    /// Re-verify a saved plan bit-exactly (`soctdc verify …`).
    Verify(VerifyArgs),
    /// Print a per-core summary of an SOC (`soctdc info …`).
    Info(InfoArgs),
    /// Fit a test to a tester memory budget by truncation
    /// (`soctdc truncate …`).
    Truncate(TruncateArgs),
    /// Run the persistent planning daemon (`soctdc serve …`).
    Serve(ServeArgs),
    /// Plan a whole manifest of design instances (`soctdc fleet …`).
    Fleet(FleetArgs),
    /// Print usage (`soctdc help`).
    Help,
}

/// Arguments of `soctdc fleet`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetArgs {
    /// Manifest file path (one design instance sweep per line).
    pub manifest: String,
    /// Total worker budget across both scheduling levels
    /// (`0` = auto-detect one per available CPU).
    pub workers: usize,
    /// Shared sharded profile-cache root (safe for concurrent fleets).
    pub profile_cache: Option<String>,
    /// Write each instance's plan file as `ID.plan` into this directory.
    pub plan_dir: Option<String>,
    /// Skip instances whose `--plan-dir` plan file round-trips
    /// byte-identical from a previous run.
    pub resume: bool,
    /// Stream one JSON line per instance (in completion order) to this
    /// file while the batch runs.
    pub ndjson: Option<String>,
}

/// Arguments of `soctdc serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Persistent state root (sessions, caches, quarantine).
    pub root: String,
    /// Optional `host:port` for the HTTP listener.
    pub http: Option<String>,
    /// Planning worker threads (`None` = daemon default).
    pub workers: Option<usize>,
    /// Request-queue capacity (`None` = daemon default).
    pub queue_cap: Option<usize>,
    /// Default wall-clock budget (ms) for plan requests without one.
    pub default_budget_ms: Option<u64>,
}

/// Arguments of `soctdc plan`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArgs {
    /// What to plan: SOC source, seed, ITC'02 care density, mode keyword,
    /// wire budget and evaluation fidelity.
    pub job: Job,
    /// Render an ASCII Gantt chart.
    pub gantt: bool,
    /// Write the plan file here.
    pub plan_out: Option<String>,
    /// Wall-clock planning budget in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Checkpoint the best incumbent plan here while searching.
    pub checkpoint: Option<String>,
    /// Resume from a previously checkpointed plan file.
    pub resume: Option<String>,
    /// Worker threads for table building and architecture search
    /// (`None` or `Some(0)` = one per available CPU; results are
    /// identical either way).
    pub workers: Option<usize>,
    /// Cache per-core profiles as CSVs in this directory, so repeated
    /// planning runs over the same design skip the profile rebuild.
    pub profile_cache: Option<String>,
}

/// Arguments of `soctdc profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileArgs {
    /// SOC source.
    pub source: SocSource,
    /// Core name within the SOC.
    pub core: String,
    /// Widest TAM width to profile.
    pub max_width: u32,
    /// Cube-synthesis seed.
    pub seed: u64,
    /// Patterns sampled per evaluation.
    pub sample: usize,
    /// Care density for ITC'02 inputs.
    pub density: f64,
}

/// Arguments of `soctdc rtl`.
#[derive(Debug, Clone, PartialEq)]
pub struct RtlArgs {
    /// Decompressor output chains `m`.
    pub chains: u32,
    /// Verilog module name.
    pub module: String,
}

/// Arguments of `soctdc stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsArgs {
    /// SOC source.
    pub source: SocSource,
    /// Core name within the SOC.
    pub core: String,
    /// Wrapper chains to analyze at.
    pub chains: u32,
    /// Cube-synthesis seed.
    pub seed: u64,
    /// Care density for ITC'02 inputs.
    pub density: f64,
}

/// Arguments of `soctdc verify`.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyArgs {
    /// SOC source (must match the one the plan was made for).
    pub source: SocSource,
    /// Path of the plan file.
    pub plan: String,
    /// Cube-synthesis seed (must match the planning run).
    pub seed: u64,
    /// Care density for ITC'02 inputs.
    pub density: f64,
}

/// Arguments of `soctdc truncate`.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncateArgs {
    /// What to fit, as [`PlanArgs::job`].
    pub job: Job,
    /// Tester vector-memory depth.
    pub depth: u64,
}

/// Arguments of `soctdc info`.
#[derive(Debug, Clone, PartialEq)]
pub struct InfoArgs {
    /// SOC source.
    pub source: SocSource,
    /// Care density for ITC'02 inputs.
    pub density: f64,
}

/// Arguments of `soctdc convert`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertArgs {
    /// SOC source.
    pub source: SocSource,
    /// Target format: `"itc02"` or `"simple"`.
    pub to: String,
    /// Care density for ITC'02 inputs.
    pub density: f64,
}

/// Error produced while parsing or running a command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; the string is a user-facing message.
    Usage(String),
    /// Any downstream failure (IO, parse, planning).
    Run(Box<dyn std::error::Error>),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}\n\n{USAGE}"),
            CliError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// A failure message from a downstream layer (an SOC source, say).
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Run(message.into())
    }
}

/// The usage text (`soctdc help`).
pub const USAGE: &str = "\
soctdc — SOC test-architecture optimization with core-level decompression

USAGE:
  soctdc plan    (--soc FILE | --itc02 FILE | --design NAME) [--width N | --ate N]
                 [--mode no-tdc|per-core|per-tam|fixed4|reseed|fdr|select] [--seed N]
                 [--sample N] [--mcand N] [--exact] [--density F] [--gantt]
                 [--plan-out FILE] [--deadline MS] [--checkpoint FILE] [--resume FILE]
                 [--workers N] [--profile-cache DIR]
  soctdc profile (--soc FILE | --itc02 FILE | --design NAME) --core NAME
                 [--max-width N] [--seed N] [--sample N] [--density F]
  soctdc convert (--soc FILE | --itc02 FILE | --design NAME) --to itc02|simple
                 [--density F]
  soctdc verify  (--soc FILE | --itc02 FILE | --design NAME) --plan FILE
                 [--seed N] [--density F]
  soctdc rtl     --chains M [--module NAME]
  soctdc stats   (--soc FILE | --itc02 FILE | --design NAME) --core NAME
                 --chains M [--seed N] [--density F]
  soctdc truncate (--soc FILE | --itc02 FILE | --design NAME) --depth N
                 [--width N | --ate N] [--mode …] [--seed N] [--density F]
  soctdc info    (--soc FILE | --itc02 FILE | --design NAME) [--density F]
  soctdc serve   --root DIR [--http ADDR] [--workers N] [--queue-cap N]
                 [--deadline MS]
  soctdc fleet   --manifest FILE [--workers N] [--profile-cache DIR]
                 [--plan-dir DIR] [--resume] [--ndjson FILE]
  soctdc designs
  soctdc help

Defaults: --width 32, --mode per-core, --seed 2008, --sample 24, --mcand 16,
          --density 0.66 (for ITC'02 inputs).
--workers 0 auto-detects one worker per available CPU (plan, serve, fleet).";

/// Parses a `soctdc` command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] with a message on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let usage = |m: &str| CliError::Usage(m.to_string());
    let Some(cmd) = args.first() else {
        return Err(usage("missing command"));
    };
    let mut source: Option<SocSource> = None;
    let mut width: Option<u32> = None;
    let mut ate: Option<u32> = None;
    let mut mode = "per-core".to_string();
    let mut seed = 2008u64;
    let mut sample: Option<usize> = Some(24);
    let mut mcand = 16usize;
    let mut exact = false;
    let mut density = 0.66f64;
    let mut gantt = false;
    let mut core: Option<String> = None;
    let mut max_width = 16u32;
    let mut to: Option<String> = None;
    let mut chains: Option<u32> = None;
    let mut module = "decompressor".to_string();
    let mut plan_out: Option<String> = None;
    let mut plan_file: Option<String> = None;
    let mut depth: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut checkpoint: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut profile_cache: Option<String> = None;
    let mut root: Option<String> = None;
    let mut http: Option<String> = None;
    let mut queue_cap: Option<usize> = None;
    let mut manifest: Option<String> = None;
    let mut plan_dir: Option<String> = None;
    let mut resume_flag = false;
    let mut ndjson: Option<String> = None;

    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        // `--resume` is overloaded: `plan --resume FILE` resumes from a
        // checkpoint, bare `fleet --resume` skips already-planned
        // instances. Peek so a following flag is not eaten as the value.
        if flag == "--resume" {
            match it.clone().next() {
                Some(v) if !v.starts_with("--") => {
                    resume = Some(v.clone());
                    it.next();
                }
                _ => resume_flag = true,
            }
            continue;
        }
        let mut value = |name: &str| -> Result<String, CliError> {
            it.next()
                .cloned()
                .ok_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--soc" => source = Some(SocSource::SimpleFile(value("--soc")?)),
            "--itc02" => source = Some(SocSource::Itc02File(value("--itc02")?)),
            "--design" => {
                source = Some(SocSource::builtin(&value("--design")?).map_err(|e| usage(&e))?);
            }
            "--width" => width = Some(parse_num(&value("--width")?, "--width")?),
            "--ate" => ate = Some(parse_num(&value("--ate")?, "--ate")?),
            "--mode" => mode = value("--mode")?,
            "--seed" => seed = parse_num(&value("--seed")?, "--seed")?,
            "--sample" => sample = Some(parse_num(&value("--sample")?, "--sample")?),
            "--mcand" => mcand = parse_num(&value("--mcand")?, "--mcand")?,
            "--exact" => exact = true,
            "--density" => {
                density = value("--density")?
                    .parse()
                    .map_err(|_| usage("--density needs a number"))?;
            }
            "--gantt" => gantt = true,
            "--core" => core = Some(value("--core")?),
            "--max-width" => max_width = parse_num(&value("--max-width")?, "--max-width")?,
            "--to" => to = Some(value("--to")?),
            "--chains" => chains = Some(parse_num(&value("--chains")?, "--chains")?),
            "--module" => module = value("--module")?,
            "--plan-out" => plan_out = Some(value("--plan-out")?),
            "--plan" => plan_file = Some(value("--plan")?),
            "--depth" => depth = Some(parse_num(&value("--depth")?, "--depth")?),
            "--deadline" => deadline_ms = Some(parse_num(&value("--deadline")?, "--deadline")?),
            "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
            "--ndjson" => ndjson = Some(value("--ndjson")?),
            // `0` is meaningful: auto-detect one worker per available CPU.
            "--workers" => workers = Some(parse_num(&value("--workers")?, "--workers")?),
            "--profile-cache" => profile_cache = Some(value("--profile-cache")?),
            "--manifest" => manifest = Some(value("--manifest")?),
            "--plan-dir" => plan_dir = Some(value("--plan-dir")?),
            "--root" => root = Some(value("--root")?),
            "--http" => http = Some(value("--http")?),
            "--queue-cap" => {
                let n: usize = parse_num(&value("--queue-cap")?, "--queue-cap")?;
                if n == 0 {
                    return Err(usage("--queue-cap needs at least 1"));
                }
                queue_cap = Some(n);
            }
            other => return Err(usage(&format!("unknown flag `{other}`"))),
        }
    }

    let decisions = if exact {
        DecisionConfig::exact()
    } else {
        DecisionConfig {
            pattern_sample: sample,
            m_candidates: mcand,
        }
    };
    let need_source =
        |source: Option<SocSource>| source.ok_or_else(|| usage("an SOC source is required"));
    // What `plan` and `truncate` plan; `--ate` wins over `--width`.
    let budget = match (width, ate) {
        (_, Some(a)) => Budget::AteChannels(a),
        (w, None) => Budget::TamWidth(w.unwrap_or(32)),
    };
    let job = |source| -> Result<Job, CliError> {
        Ok(Job {
            source: need_source(source)?,
            seed,
            density,
            mode,
            request: PlanRequest {
                budget,
                decisions,
                architecture: ArchitectureOptions::default(),
            },
        })
    };

    match cmd.as_str() {
        "plan" => {
            if width.is_some() && ate.is_some() {
                return Err(usage("--width and --ate are mutually exclusive"));
            }
            if resume_flag {
                return Err(usage("plan --resume needs a checkpoint FILE"));
            }
            Ok(Command::Plan(PlanArgs {
                job: job(source)?,
                gantt,
                plan_out,
                deadline_ms,
                checkpoint,
                resume,
                workers,
                profile_cache,
            }))
        }
        "profile" => Ok(Command::Profile(ProfileArgs {
            source: need_source(source)?,
            core: core.ok_or_else(|| usage("profile needs --core NAME"))?,
            max_width,
            seed,
            sample: sample.unwrap_or(24),
            density,
        })),
        "convert" => Ok(Command::Convert(ConvertArgs {
            source: need_source(source)?,
            to: to.ok_or_else(|| usage("convert needs --to itc02|simple"))?,
            density,
        })),
        "rtl" => Ok(Command::Rtl(RtlArgs {
            chains: chains.ok_or_else(|| usage("rtl needs --chains M"))?,
            module,
        })),
        "stats" => Ok(Command::Stats(StatsArgs {
            source: need_source(source)?,
            core: core.ok_or_else(|| usage("stats needs --core NAME"))?,
            chains: chains.ok_or_else(|| usage("stats needs --chains M"))?,
            seed,
            density,
        })),
        "verify" => Ok(Command::Verify(VerifyArgs {
            source: need_source(source)?,
            plan: plan_file.ok_or_else(|| usage("verify needs --plan FILE"))?,
            seed,
            density,
        })),
        "truncate" => Ok(Command::Truncate(TruncateArgs {
            job: job(source)?,
            depth: depth.ok_or_else(|| usage("truncate needs --depth N"))?,
        })),
        "serve" => Ok(Command::Serve(ServeArgs {
            root: root.ok_or_else(|| usage("serve needs --root DIR"))?,
            http,
            workers,
            queue_cap,
            default_budget_ms: deadline_ms,
        })),
        "fleet" => {
            if resume.is_some() {
                return Err(usage(
                    "fleet --resume takes no value (plans come from --plan-dir)",
                ));
            }
            if resume_flag && plan_dir.is_none() {
                return Err(usage("fleet --resume needs --plan-dir DIR"));
            }
            Ok(Command::Fleet(FleetArgs {
                manifest: manifest.ok_or_else(|| usage("fleet needs --manifest FILE"))?,
                workers: workers.unwrap_or(0),
                profile_cache,
                plan_dir,
                resume: resume_flag,
                ndjson,
            }))
        }
        "info" => Ok(Command::Info(InfoArgs {
            source: need_source(source)?,
            density,
        })),
        "designs" => Ok(Command::Designs),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(usage(&format!("unknown command `{other}`"))),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::Usage(format!("{flag}: invalid number `{s}`")))
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Propagates IO, parse, and planning failures as [`CliError::Run`].
pub fn run(command: &Command, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let io_err = |e: std::io::Error| CliError::Run(Box::new(e));
    match command {
        Command::Help => writeln!(out, "{USAGE}").map_err(io_err),
        Command::Serve(args) => {
            let defaults = serve::ServeConfig::new(&args.root);
            let config = serve::ServeConfig {
                http: args.http.clone(),
                workers: args.workers.unwrap_or(defaults.workers),
                queue_cap: args.queue_cap.unwrap_or(defaults.queue_cap),
                default_budget_ms: args.default_budget_ms.unwrap_or(defaults.default_budget_ms),
                ..defaults
            };
            // The daemon owns the process stdio (NDJSON protocol); `out`
            // is not used so the wire format stays line-exact.
            match serve::run(&config) {
                0 => Ok(()),
                code => Err(CliError::Run(
                    format!("serve exited with code {code}").into(),
                )),
            }
        }
        Command::Fleet(args) => {
            let text = std::fs::read_to_string(&args.manifest)
                .map_err(|e| CliError::Run(format!("cannot read {}: {e}", args.manifest).into()))?;
            let manifest = fleet::Manifest::parse(&text).map_err(|e| CliError::Run(Box::new(e)))?;
            let opts = fleet::FleetOptions {
                workers: args.workers,
                profile_cache: args.profile_cache.clone().map(Into::into),
                resume_plan_dir: args
                    .resume
                    .then(|| args.plan_dir.clone().map(Into::into))
                    .flatten(),
            };
            // `--ndjson` streams one line per instance as workers finish
            // it — progress is observable while the batch runs, so the
            // writer flushes per line.
            let ndjson = match &args.ndjson {
                Some(path) => Some(std::sync::Mutex::new(
                    std::fs::File::create(path)
                        .map_err(|e| CliError::Run(format!("cannot create {path}: {e}").into()))?,
                )),
                None => None,
            };
            let on_report = |r: &fleet::InstanceReport| {
                use std::io::Write as _;
                if let Some(file) = &ndjson {
                    // soclint: allow(capture-mut) -- append-only telemetry stream; line order is completion order by design
                    if let Ok(mut f) = file.lock() {
                        let _ = writeln!(f, "{}", fleet::ndjson_line(r));
                    }
                }
            };
            let hooks = fleet::FleetHooks {
                on_report: args
                    .ndjson
                    .as_ref()
                    .map(|_| &on_report as &(dyn Fn(&fleet::InstanceReport) + Sync)),
            };
            let report = fleet::run_fleet_with(&manifest, &opts, &hooks);
            for r in &report.instances {
                let note = match &r.outcome {
                    fleet::InstanceOutcome::Failed(m) => format!("failed: {m}"),
                    _ => r.outcome.keyword(),
                };
                writeln!(out, "{:<32} {:>9.1} ms  {note}", r.id, r.latency_ms).map_err(io_err)?;
            }
            if let Some(dir) = &args.plan_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| CliError::Run(format!("cannot create {dir}: {e}").into()))?;
                let mut written = 0usize;
                for r in &report.instances {
                    // Resumed plans are already on disk byte-identical;
                    // rewriting would only churn mtimes.
                    if matches!(r.outcome, fleet::InstanceOutcome::Resumed) {
                        continue;
                    }
                    if let Some(plan) = &r.plan {
                        let path = std::path::Path::new(dir).join(format!("{}.plan", r.id));
                        std::fs::write(&path, write_plan(plan)).map_err(|e| {
                            CliError::Run(format!("cannot write {}: {e}", path.display()).into())
                        })?;
                        written += 1;
                    }
                }
                writeln!(
                    out,
                    "{written} plan files written to {dir} ({} resumed in place)",
                    report.summary.resumed
                )
                .map_err(io_err)?;
            }
            writeln!(out, "{}", report.summary).map_err(io_err)?;
            // Determinism-sanitizer drain: under `SOCTDC_DSAN=1` the pool
            // edges and shadowed cells have been recording; surface the
            // verdict, persist it when `SOCTDC_DSAN_REPORT` names a path
            // (the CI artifact), and fail the run on any race.
            if parpool::dsan::enabled() {
                let dsan_report = parpool::dsan::take_report();
                let rendered = dsan_report.to_string();
                if let Some(path) = std::env::var_os("SOCTDC_DSAN_REPORT") {
                    std::fs::write(&path, &rendered).map_err(|e| {
                        CliError::Run(format!("cannot write dsan report: {e}").into())
                    })?;
                }
                eprint!("{rendered}");
                if !dsan_report.is_clean() {
                    return Err(CliError::Run(
                        format!(
                            "determinism sanitizer: {} unordered conflicting access pair(s)",
                            dsan_report.races.len()
                        )
                        .into(),
                    ));
                }
            }
            if report.summary.failed > 0 {
                return Err(CliError::Run(
                    format!(
                        "{} of {} instances failed",
                        report.summary.failed, report.summary.instances
                    )
                    .into(),
                ));
            }
            Ok(())
        }
        Command::Designs => {
            for d in Design::ALL {
                let soc = d.build();
                writeln!(
                    out,
                    "{:<9} {:>2} cores, {:>9} scan cells, {:>12} bits stimulus{}",
                    d.name(),
                    soc.core_count(),
                    soc.total_scan_cells(),
                    soc.initial_volume_bits(),
                    if d.is_industrial() {
                        "  (industrial-like)"
                    } else {
                        ""
                    }
                )
                .map_err(io_err)?;
            }
            Ok(())
        }
        Command::Convert(args) => {
            let soc = args.source.read().and_then(|c| c.parse(args.density))?;
            let text = match args.to.as_str() {
                "itc02" => write_itc02(&soc),
                "simple" => crate::model::format::write_soc(&soc),
                other => {
                    return Err(CliError::Usage(format!(
                        "unknown target format `{other}` (itc02|simple)"
                    )));
                }
            };
            write!(out, "{text}").map_err(io_err)
        }
        Command::Truncate(args) => {
            let job = &args.job;
            let soc = job.source.build(job.seed, job.density)?;
            let planner = planner_for(&job.mode)
                .ok_or_else(|| CliError::Usage(format!("unknown mode `{}`", job.mode)))?;
            let spec = crate::planner::AteSpec {
                channels: job.request.budget.width(),
                memory_depth: args.depth,
                clock_hz: 50_000_000,
            };
            let t = crate::planner::truncate_to_fit(&soc, &planner, &job.request, &spec)
                .map_err(|e| CliError::Run(Box::new(e)))?;
            write!(out, "{t}").map_err(io_err)?;
            writeln!(
                out,
                "quality proxy (care bits kept): {:.1}%",
                100.0 * t.quality_proxy(&soc)
            )
            .map_err(io_err)
        }
        Command::Info(args) => {
            let soc = args.source.read().and_then(|c| c.parse(args.density))?;
            writeln!(out, "{soc}").map_err(io_err)?;
            writeln!(
                out,
                "{:>14} {:>8} {:>8} {:>7} {:>10} {:>9} {:>8} {:>10}",
                "core",
                "inputs",
                "outputs",
                "bidirs",
                "scan cells",
                "patterns",
                "density",
                "Vi (bits)"
            )
            .map_err(io_err)?;
            for core in soc.cores() {
                writeln!(
                    out,
                    "{:>14} {:>8} {:>8} {:>7} {:>10} {:>9} {:>8.3} {:>10}",
                    core.name(),
                    core.inputs(),
                    core.outputs(),
                    core.bidirs(),
                    core.scan_cells(),
                    core.pattern_count(),
                    core.care_density(),
                    core.initial_volume_bits()
                )
                .map_err(io_err)?;
            }
            Ok(())
        }
        Command::Verify(args) => {
            let soc = args.source.build(args.seed, args.density)?;
            let text = std::fs::read_to_string(&args.plan)
                .map_err(|e| CliError::Run(format!("cannot read {}: {e}", args.plan).into()))?;
            let plan = parse_plan(&text).map_err(|e| CliError::Run(Box::new(e)))?;
            let image = export_image(&soc, &plan).map_err(|e| CliError::Run(Box::new(e)))?;
            verify_image(&image, &soc, &plan).map_err(|e| CliError::Run(Box::new(e)))?;
            writeln!(
                out,
                "plan verified: {} cores, {} cycles, every care bit honored",
                plan.core_settings.len(),
                plan.test_time
            )
            .map_err(io_err)
        }
        Command::Rtl(args) => {
            if args.chains == 0 {
                return Err(CliError::Usage("--chains must be positive".into()));
            }
            let code = SliceCode::for_chains(args.chains);
            write!(out, "{}", generate_verilog(code, &args.module)).map_err(io_err)
        }
        Command::Stats(args) => {
            let soc = args.source.build(args.seed, args.density)?;
            let Some((_, core)) = soc.core_by_name(&args.core) else {
                return Err(CliError::Run(
                    format!("no core named {:?} in {}", args.core, soc.name()).into(),
                ));
            };
            let stats = SliceStats::for_core(core, args.chains, 32);
            writeln!(out, "{stats:#?}").map_err(io_err)
        }
        Command::Profile(args) => {
            let soc = args.source.build(args.seed, args.density)?;
            let Some((_, core)) = soc.core_by_name(&args.core) else {
                return Err(CliError::Run(
                    format!("no core named {:?} in {}", args.core, soc.name()).into(),
                ));
            };
            let profile = CoreProfile::build(
                core,
                &ProfileConfig::new(args.max_width)
                    .pattern_sample(args.sample)
                    .m_candidates(32),
            );
            write!(out, "{profile}").map_err(io_err)
        }
        Command::Plan(args) => {
            let mut job = args.job.clone();
            job.request.architecture.workers = args.workers.map(Engine::workers);
            let mut control = match args.deadline_ms {
                Some(ms) => PlanControl::with_deadline(std::time::Duration::from_millis(ms)),
                None => PlanControl::default(),
            };
            if let Some(path) = &args.checkpoint {
                control = control.checkpoint_to(path);
            }
            if let Some(path) = &args.resume {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::Run(format!("cannot read {path}: {e}").into()))?;
                let prev = parse_plan(&text).map_err(|e| CliError::Run(Box::new(e)))?;
                control = control.resume_from(prev);
            }
            let engine = Engine::new(args.profile_cache.clone().map(Into::into));
            let (plan, stats) = engine.plan(&job, control).map_err(|e| match e {
                JobError::UnknownMode(_) => CliError::Usage(e.to_string()),
                e => CliError::Run(Box::new(e)),
            })?;
            write!(out, "{plan}").map_err(io_err)?;
            if !plan.outcome.is_complete() {
                writeln!(out, "search {}: best incumbent shown", plan.outcome).map_err(io_err)?;
            }
            if stats.streams_verified > 0 {
                writeln!(
                    out,
                    "verified {} compressed streams ({} codewords) at plan time",
                    stats.streams_verified, stats.stream_words
                )
                .map_err(io_err)?;
            }
            if args.profile_cache.is_some() {
                writeln!(out, "{}", stats.profile_cache_line()).map_err(io_err)?;
            }
            if let Some(path) = &args.plan_out {
                std::fs::write(path, write_plan(&plan))
                    .map_err(|e| CliError::Run(format!("cannot write {path}: {e}").into()))?;
                writeln!(out, "plan written to {path}").map_err(io_err)?;
            }
            if args.gantt {
                let max_w = plan
                    .schedule
                    .tam_widths()
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(1);
                let mut cost = CostModel::new(max_w);
                for s in &plan.core_settings {
                    let mut row = vec![None; max_w as usize];
                    for w in s.tam_width..=max_w {
                        row[(w - 1) as usize] = Some(s.test_time);
                    }
                    cost.push_core(&s.name, row);
                }
                writeln!(out, "\n{}", render_gantt(&plan.schedule, &cost, 64)).map_err(io_err)?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_plan_defaults() {
        let cmd = parse_args(&argv("plan --design d695")).unwrap();
        match cmd {
            Command::Plan(a) => {
                assert_eq!(a.job.request.budget, Budget::TamWidth(32));
                assert_eq!(a.job.mode, "per-core");
                assert_eq!(a.job.seed, 2008);
                assert!(!a.gantt);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_plan_flags() {
        let cmd = parse_args(&argv(
            "plan --design system1 --ate 16 --mode no-tdc --gantt --exact",
        ))
        .unwrap();
        match cmd {
            Command::Plan(a) => {
                assert_eq!(a.job.request.budget, Budget::AteChannels(16));
                assert_eq!(a.job.mode, "no-tdc");
                assert!(a.gantt);
                assert_eq!(a.job.request.decisions, DecisionConfig::exact());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_robustness_flags() {
        let cmd = parse_args(&argv(
            "plan --design d695 --deadline 250 --checkpoint ck.plan --resume old.plan",
        ))
        .unwrap();
        match cmd {
            Command::Plan(a) => {
                assert_eq!(a.deadline_ms, Some(250));
                assert_eq!(a.checkpoint.as_deref(), Some("ck.plan"));
                assert_eq!(a.resume.as_deref(), Some("old.plan"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&argv("plan --design d695 --deadline soon")).is_err());
    }

    #[test]
    fn parses_workers_and_profile_cache() {
        let cmd = parse_args(&argv(
            "plan --design d695 --workers 2 --profile-cache /tmp/profcache",
        ))
        .unwrap();
        match cmd {
            Command::Plan(a) => {
                assert_eq!(a.workers, Some(2));
                assert_eq!(a.profile_cache.as_deref(), Some("/tmp/profcache"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let defaults = parse_args(&argv("plan --design d695")).unwrap();
        match defaults {
            Command::Plan(a) => {
                assert_eq!(a.workers, None);
                assert_eq!(a.profile_cache, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // `--workers 0` is the documented auto-detect spelling.
        match parse_args(&argv("plan --design d695 --workers 0")).unwrap() {
            Command::Plan(a) => assert_eq!(a.workers, Some(0)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&argv("plan --design d695 --workers lots")).is_err());
    }

    #[test]
    fn workers_zero_resolves_to_detected_parallelism() {
        // `--workers 0` on plan, serve and fleet goes through this rule.
        assert!(Engine::workers(0) >= 1);
        assert_eq!(Engine::workers(3), 3);
    }

    #[test]
    fn parses_fleet_command() {
        let cmd = parse_args(&argv(
            "fleet --manifest batch.txt --workers 4 --profile-cache pc --plan-dir plans",
        ))
        .unwrap();
        match cmd {
            Command::Fleet(a) => {
                assert_eq!(a.manifest, "batch.txt");
                assert_eq!(a.workers, 4);
                assert_eq!(a.profile_cache.as_deref(), Some("pc"));
                assert_eq!(a.plan_dir.as_deref(), Some("plans"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_args(&argv("fleet --manifest batch.txt")).unwrap() {
            Command::Fleet(a) => {
                assert_eq!(a.workers, 0, "defaults to auto-detect");
                assert_eq!(a.profile_cache, None);
                assert_eq!(a.plan_dir, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&argv("fleet")).is_err(), "manifest is required");
    }

    #[test]
    fn parses_fleet_resume_and_ndjson() {
        // Bare `--resume` is a flag for fleet, even when other flags
        // follow it.
        match parse_args(&argv(
            "fleet --resume --manifest b.txt --plan-dir plans --ndjson prog.ndjson",
        ))
        .unwrap()
        {
            Command::Fleet(a) => {
                assert!(a.resume);
                assert_eq!(a.ndjson.as_deref(), Some("prog.ndjson"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // `plan --resume FILE` still takes its checkpoint argument.
        match parse_args(&argv("plan --design d695 --resume old.plan")).unwrap() {
            Command::Plan(a) => assert_eq!(a.resume.as_deref(), Some("old.plan")),
            other => panic!("unexpected {other:?}"),
        }
        // Misuse is caught, not silently reinterpreted.
        assert!(
            parse_args(&argv("fleet --manifest b.txt --resume plans")).is_err(),
            "fleet --resume takes no value"
        );
        assert!(
            parse_args(&argv("fleet --manifest b.txt --resume")).is_err(),
            "fleet --resume needs --plan-dir"
        );
        assert!(
            parse_args(&argv("plan --design d695 --resume")).is_err(),
            "plan --resume needs a file"
        );
    }

    #[test]
    fn fleet_resume_skips_written_plans_and_streams_ndjson() {
        let dir = std::env::temp_dir().join(format!("soctdc-fleet-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("batch.txt");
        std::fs::write(&manifest, "design d695 widths=10,12 sample=4 mcand=4\n").unwrap();
        let plans = dir.join("plans");
        let ndjson = dir.join("progress.ndjson");

        // Cold run writes the plan files.
        let cold = parse_args(&argv(&format!(
            "fleet --manifest {} --workers 1 --plan-dir {}",
            manifest.display(),
            plans.display()
        )))
        .unwrap();
        run(&cold, &mut Vec::new()).unwrap();

        // Warm run resumes both and streams NDJSON progress.
        let warm = parse_args(&argv(&format!(
            "fleet --resume --manifest {} --workers 1 --plan-dir {} --ndjson {}",
            manifest.display(),
            plans.display(),
            ndjson.display()
        )))
        .unwrap();
        let mut out = Vec::new();
        run(&warm, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("2 instances, 2 planned, 0 failed, 2 resumed"),
            "{text}"
        );
        assert!(text.contains("0 plan files written"), "{text}");
        assert!(text.contains("(2 resumed in place)"), "{text}");

        let stream = std::fs::read_to_string(&ndjson).unwrap();
        let lines: Vec<&str> = stream.lines().collect();
        assert_eq!(lines.len(), 2, "{stream}");
        for line in lines {
            assert!(line.starts_with("{\"id\":\"d695-w1"), "{line}");
            assert!(line.contains("\"outcome\":\"resumed\""), "{line}");
            assert!(line.contains("\"test_time\":"), "{line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_fleet_reports_instances_and_summary() {
        let dir = std::env::temp_dir().join(format!("soctdc-fleet-cli-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("batch.txt");
        std::fs::write(&manifest, "design d695 widths=10,12 sample=4 mcand=4\n").unwrap();
        let plans = dir.join("plans");
        let cmd = parse_args(&argv(&format!(
            "fleet --manifest {} --workers 2 --plan-dir {}",
            manifest.display(),
            plans.display()
        )))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("d695-w10-seed2008"), "{text}");
        assert!(text.contains("2 instances, 2 planned, 0 failed"), "{text}");
        assert!(text.contains("budget 2 ="), "{text}");
        assert!(text.contains("2 plan files written"), "{text}");
        assert!(plans.join("d695-w12-seed2008.plan").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_modes_keep_their_own_plan_files_through_resume() {
        let dir = std::env::temp_dir().join(format!("soctdc-fleet-modes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("batch.txt");
        std::fs::write(
            &manifest,
            "design d695 widths=12 sample=4 mcand=4\n\
             design d695 widths=12 sample=4 mcand=4 mode=no-tdc\n",
        )
        .unwrap();
        let plans = dir.join("plans");
        let ndjson = dir.join("progress.ndjson");
        let fleet = |extra: &str| {
            let cmd = parse_args(&argv(&format!(
                "fleet {extra} --manifest {} --workers 2 --plan-dir {}",
                manifest.display(),
                plans.display()
            )))
            .unwrap();
            let mut out = Vec::new();
            run(&cmd, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let read = |id: &str| std::fs::read_to_string(plans.join(format!("{id}.plan"))).unwrap();

        let text = fleet("");
        assert!(text.contains("2 plan files written"), "{text}");
        assert_eq!(std::fs::read_dir(&plans).unwrap().count(), 2);
        let per_core = read("d695-w12-seed2008");
        let no_tdc = read("d695-w12-seed2008-no-tdc");
        assert_eq!(
            parse_plan(&per_core).unwrap().mode,
            Planner::per_core_tdc().mode()
        );
        assert_eq!(parse_plan(&no_tdc).unwrap().mode, Planner::no_tdc().mode());

        // Each instance resumes its own plan, and the files stay as written.
        let text = fleet(&format!("--resume --ndjson {}", ndjson.display()));
        assert!(text.contains("2 planned, 0 failed, 2 resumed"), "{text}");
        assert_eq!(
            (read("d695-w12-seed2008"), read("d695-w12-seed2008-no-tdc")),
            (per_core.clone(), no_tdc.clone())
        );
        let stream = std::fs::read_to_string(&ndjson).unwrap();
        for (id, plan) in [
            ("d695-w12-seed2008", &per_core),
            ("d695-w12-seed2008-no-tdc", &no_tdc),
        ] {
            let volume = parse_plan(plan).unwrap().volume_bits;
            let line = format!("{{\"id\":\"{id}\",\"outcome\":\"resumed\"");
            let line = stream
                .lines()
                .find(|l| l.starts_with(&line))
                .unwrap_or_else(|| panic!("{stream}"));
            assert!(
                line.contains(&format!("\"volume_bits\":{volume}}}")),
                "{line}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_with_failures_exits_with_error_after_reporting() {
        let dir = std::env::temp_dir().join(format!("soctdc-fleet-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("batch.txt");
        std::fs::write(
            &manifest,
            "design d695 widths=10 sample=4 mcand=4\n\
             soc /nonexistent/missing.soc widths=8\n",
        )
        .unwrap();
        let cmd = parse_args(&argv(&format!("fleet --manifest {}", manifest.display()))).unwrap();
        let mut out = Vec::new();
        let err = run(&cmd, &mut out).unwrap_err();
        assert!(err.to_string().contains("1 of 2 instances failed"));
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("failed: cannot read"), "{text}");
        assert!(text.contains("1 failed"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_cache_round_trip_reproduces_the_plan() {
        let dir = std::env::temp_dir().join(format!("soctdc-profcache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = format!(
            "plan --design d695 --width 12 --sample 4 --mcand 4 --profile-cache {}",
            dir.display()
        );
        // Cold run populates the cache, warm run answers from it; the
        // printed plan must be byte-identical.
        let cmd = parse_args(&argv(&base)).unwrap();
        let mut cold = Vec::new();
        run(&cmd, &mut cold).unwrap();
        let files = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert!(files > 0, "cold run wrote no profile CSVs");
        let mut warm = Vec::new();
        run(&cmd, &mut warm).unwrap();
        // The header's elapsed-time annotation and the cache-stats line
        // legitimately differ (the warm run is the fast, all-hits one);
        // everything else must be identical.
        let strip_varying = |bytes: &[u8]| -> String {
            let text = std::str::from_utf8(bytes).unwrap();
            let (head, rest) = text.split_once('\n').unwrap();
            let head = head.rsplit_once(" (").map_or(head, |(h, _)| h);
            let rest: String = rest
                .lines()
                .filter(|l| !l.starts_with("profile cache:"))
                .collect::<Vec<_>>()
                .join("\n");
            format!("{head}\n{rest}")
        };
        assert_eq!(strip_varying(&cold), strip_varying(&warm));
        let cold_text = String::from_utf8(cold).unwrap();
        let warm_text = String::from_utf8(warm).unwrap();
        assert!(
            cold_text.contains("profile cache: 0 hits, 0 partial, 10 misses"),
            "{cold_text}"
        );
        assert!(
            warm_text.contains("profile cache: 10 hits, 0 partial, 0 misses"),
            "{warm_text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn plan_and_fleet_share_builtin_profiles_at_their_own_default_densities() {
        // The CLI defaults to density 0.66 and fleet to 0.02; a builtin
        // design reads neither, so both name the same profiles.
        let dir = std::env::temp_dir().join(format!("soctdc-density-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache");
        let plan = format!(
            "plan --design d695 --width 12 --seed 1 --sample 4 --mcand 4 --profile-cache {}",
            cache.display()
        );
        let mut out = Vec::new();
        run(&parse_args(&argv(&plan)).unwrap(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("profile cache: 0 hits, 0 partial, 10 misses"),
            "{text}"
        );
        let manifest = dir.join("batch.txt");
        std::fs::write(
            &manifest,
            "design d695 widths=12 seeds=1 sample=4 mcand=4\n",
        )
        .unwrap();
        let fleet = format!(
            "fleet --manifest {} --workers 1 --profile-cache {}",
            manifest.display(),
            cache.display()
        );
        let mut out = Vec::new();
        run(&parse_args(&argv(&fleet)).unwrap(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("profile cache: 10 hits, 0 partial, 0 misses"),
            "{text}"
        );
        assert_eq!(crate::planner::profile_cache_entries(&cache).len(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_plan_with_deadline_reports_degraded_outcome() {
        // An already-hopeless 1 ms budget: the plan must still come out,
        // flagged as cut short.
        let cmd = parse_args(&argv(
            "plan --design d695 --width 12 --sample 4 --mcand 4 --deadline 1",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("TAM"), "{text}");
        assert!(
            text.contains("search degraded") || text.contains("search interrupted"),
            "{text}"
        );
    }

    #[test]
    fn missing_resume_file_is_a_run_error() {
        let cmd = parse_args(&argv(
            "plan --design d695 --width 12 --sample 4 --mcand 4 --resume /nonexistent.plan",
        ))
        .unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&cmd, &mut out), Err(CliError::Run(_))));
    }

    #[test]
    fn width_and_ate_conflict() {
        assert!(matches!(
            parse_args(&argv("plan --design d695 --width 8 --ate 8")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn profile_requires_core() {
        assert!(matches!(
            parse_args(&argv("profile --design d695")),
            Err(CliError::Usage(_))
        ));
        let cmd = parse_args(&argv("profile --design d695 --core s838 --max-width 8")).unwrap();
        match cmd {
            Command::Profile(a) => {
                assert_eq!(a.core, "s838");
                assert_eq!(a.max_width, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_bits() {
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("plan --design nope")).is_err());
        assert!(parse_args(&argv("plan --design d695 --bogus 3")).is_err());
        assert!(parse_args(&argv("plan --design d695 --width abc")).is_err());
        assert!(parse_args(&argv("")).is_err());
    }

    #[test]
    fn designs_and_help_parse() {
        assert_eq!(parse_args(&argv("designs")).unwrap(), Command::Designs);
        assert_eq!(parse_args(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn run_designs_lists_all() {
        let mut out = Vec::new();
        run(&Command::Designs, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        for d in Design::ALL {
            assert!(text.contains(d.name()), "{text}");
        }
    }

    #[test]
    fn run_plan_on_builtin() {
        let cmd = parse_args(&argv(
            "plan --design d695 --width 16 --mode no-tdc --sample 8 --mcand 4 --gantt",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("no-TDC"));
        assert!(text.contains("TAM 0"));
        // An unknown mode is a usage error, an unreadable source a run error.
        let warp = parse_args(&argv("plan --design d695 --mode warp")).unwrap();
        assert!(matches!(
            run(&warp, &mut Vec::new()),
            Err(CliError::Usage(m)) if m == "unknown mode `warp`"
        ));
        let missing = parse_args(&argv("plan --itc02 /nonexistent/x.soc")).unwrap();
        assert!(matches!(
            run(&missing, &mut Vec::new()),
            Err(CliError::Run(e)) if e.to_string().starts_with("cannot read /nonexistent/x.soc")
        ));
    }

    #[test]
    fn run_profile_on_builtin() {
        let cmd = parse_args(&argv(
            "profile --design d695 --core s13207 --max-width 8 --sample 4",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("profile of s13207"));
    }

    #[test]
    fn run_convert_roundtrip() {
        let cmd = parse_args(&argv("convert --design d695 --to itc02")).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("SocName d695"));
        assert!(text.contains("TotalModules 11"));
    }

    #[test]
    fn unknown_core_is_a_run_error() {
        let cmd = parse_args(&argv("profile --design d695 --core nope --sample 4")).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&cmd, &mut out), Err(CliError::Run(_))));
    }
}

#[cfg(test)]
mod rtl_stats_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn rtl_command_emits_verilog() {
        let cmd = parse_args(&argv("rtl --chains 64 --module my_decomp")).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("module my_decomp ("));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn rtl_requires_chains() {
        assert!(matches!(parse_args(&argv("rtl")), Err(CliError::Usage(_))));
        let zero = parse_args(&argv("rtl --chains 0")).unwrap();
        let mut out = Vec::new();
        assert!(matches!(run(&zero, &mut out), Err(CliError::Usage(_))));
    }

    #[test]
    fn stats_command_reports_slice_statistics() {
        let cmd = parse_args(&argv(
            "stats --design d695 --core s9234 --chains 8 --seed 3",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("mean_care_per_slice"));
        assert!(text.contains("pad_fraction"));
    }

    #[test]
    fn stats_requires_core_and_chains() {
        assert!(parse_args(&argv("stats --design d695 --chains 8")).is_err());
        assert!(parse_args(&argv("stats --design d695 --core s9234")).is_err());
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn plan_writes_file_and_verify_round_trips() {
        let dir = std::env::temp_dir().join("soctdc-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan_path = dir.join("d695.plan");
        let plan_path = plan_path.to_str().unwrap();

        // Exact evaluation so the verify pass sees matching stream lengths.
        let cmd = parse_args(&argv(&format!(
            "plan --design d695 --width 12 --seed 5 --exact --plan-out {plan_path}"
        )))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("plan written"));

        let cmd = parse_args(&argv(&format!(
            "verify --design d695 --seed 5 --plan {plan_path}"
        )))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("plan verified"));

        // Corrupt the plan: shrink core 0's slot so its exact stream no
        // longer fits — verification must fail with a slot overflow.
        let text = std::fs::read_to_string(plan_path).unwrap();
        let corrupted: String = text
            .lines()
            .map(|l| {
                if l.starts_with("core 0 ") {
                    let mut parts: Vec<&str> = l.split_whitespace().collect();
                    let t = parts.iter().position(|&p| p == "time").unwrap();
                    parts[t + 1] = "1";
                    parts.join(" ")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(plan_path, corrupted).unwrap();
        let cmd = parse_args(&argv(&format!(
            "verify --design d695 --seed 5 --plan {plan_path}"
        )))
        .unwrap();
        let mut out = Vec::new();
        assert!(
            run(&cmd, &mut out).is_err(),
            "corrupted plan must not verify"
        );
        let _ = std::fs::remove_file(plan_path);
    }

    #[test]
    fn verify_requires_plan_flag() {
        assert!(matches!(
            parse_args(&argv("verify --design d695")),
            Err(CliError::Usage(_))
        ));
    }
}

#[cfg(test)]
mod truncate_info_tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn truncate_requires_depth() {
        assert!(matches!(
            parse_args(&argv("truncate --design d695")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn truncate_runs_and_reports_quality() {
        let cmd = parse_args(&argv(
            "truncate --design d695 --width 12 --mode no-tdc --depth 25000 --sample 4 --mcand 4",
        ))
        .unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("truncation: kept"));
        assert!(text.contains("quality proxy"));
    }

    #[test]
    fn info_prints_per_core_rows() {
        let cmd = parse_args(&argv("info --design d695")).unwrap();
        let mut out = Vec::new();
        run(&cmd, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("s38584"));
        assert!(text.contains("scan cells"));
    }

    #[test]
    fn fdr_and_select_modes_parse() {
        for mode in ["fdr", "select"] {
            let cmd = parse_args(&argv(&format!(
                "plan --design d695 --width 8 --mode {mode}"
            )))
            .unwrap();
            match cmd {
                Command::Plan(a) => assert_eq!(a.job.mode, mode),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
