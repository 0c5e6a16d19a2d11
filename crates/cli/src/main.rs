//! `fet` — command-line front end to the FET reproduction workspace.
//!
//! ```text
//! fet run        --n 10000 [--protocol fet] [--ell 40] [--c 4.0] [--seed 7]
//!                [--init all-wrong] [--fidelity agent|binomial|without-replacement|aggregate]
//!                [--scheduler sync|async] [--mode fused|fused-parallel]
//!                [--threads N] [--storage auto|typed|bit-plane] [--agent-level]
//! fet protocols                                    # list the registry
//! fet trace      --n 100000 [--seed 7]             # trajectory + domain visits
//! fet domains    --n 10000 [--delta 0.05] [--steps 60]
//! fet markov     --n 16 --ell 6                    # exact expected t_con
//! fet coins      --k 256 --p 0.45 --q 0.55
//! fet impossibility --n 1024
//! fet baselines  --n 1000 [--reps 10]              # every registered protocol
//! fet topology   --n 1000 --graph regular [--degree 32] [--seed 7] [--protocol fet]
//!                [--mode fused|fused-parallel] [--threads N]
//! fet conflict   --n 2000 --k0 40 --k1 160 [--seed 7]
//! fet gauntlet   spec.json [--workers W] [--manifest STEM] [--limit K] [--quiet]
//! ```
//!
//! Every simulation command runs through the unified
//! `fet_sim::simulation::Simulation` builder; protocols are resolved at
//! runtime through the `fet_protocols::registry::ProtocolRegistry`, so
//! `--protocol` accepts any registered name. Argument parsing is a
//! deliberate ~60-line hand-rolled loop (the workspace's dependency budget
//! excludes a CLI framework).

use fet_adversary::impossibility::ImpossibilityScenario;
use fet_analysis::domains::DomainParams;
use fet_analysis::markov::ExactChain;
use fet_analysis::trace::DomainTrace;
use fet_core::config::ProblemSpec;
use fet_core::fet::FetProtocol;
use fet_core::opinion::Opinion;
use fet_gauntlet::{run_gauntlet, GauntletOptions, GauntletSpec};
use fet_plot::heatmap::CategoricalMap;
use fet_plot::table::Table;
use fet_protocols::registry::{ProtocolParams, ProtocolRegistry};
use fet_sim::aggregate::AggregateFetChain;
use fet_sim::convergence::ConvergenceCriterion;
use fet_sim::engine::{ExecutionMode, Fidelity, Scheduler};
use fet_sim::init::InitialCondition;
use fet_sim::simulation::{Simulation, SimulationBuilder, Storage};
use fet_stats::compare::CoinCompetition;
use fet_sweep::runner::{run_sweep, SweepOptions};
use fet_sweep::serve::SweepServer;
use fet_sweep::spec::SweepSpec;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `sweep` and `gauntlet` take their spec file as a positional argument.
    let mut rest = &args[1..];
    let mut positional: Option<String> = None;
    if cmd == "sweep" || cmd == "gauntlet" {
        if let Some(first) = rest.first() {
            if !first.starts_with("--") {
                positional = Some(first.clone());
                rest = &rest[1..];
            }
        }
    }
    let result = parse_flags(rest).and_then(|flags| match cmd.as_str() {
        "run" => cmd_run(&flags),
        "protocols" => cmd_protocols(),
        "trace" => cmd_trace(&flags),
        "domains" => cmd_domains(&flags),
        "markov" => cmd_markov(&flags),
        "coins" => cmd_coins(&flags),
        "impossibility" => cmd_impossibility(&flags),
        "baselines" => cmd_baselines(&flags),
        "topology" => cmd_topology(&flags),
        "conflict" => cmd_conflict(&flags),
        "sweep" => cmd_sweep(positional.as_deref(), &flags),
        "gauntlet" => cmd_gauntlet(positional.as_deref(), &flags),
        "serve" => cmd_serve(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed. A malformed command line (an unknown command, a
/// flag without its value, a value that does not parse or is out of
/// range) is answered with the usage text; a well-formed command that
/// fails while it runs prints only its error.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Failed(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Failed(e)
    }
}

const USAGE: &str = "fet — self-stabilizing bit dissemination (Korman & Vacus, PODC 2022)

commands:
  run            one convergence run of any registered protocol
  protocols      list the protocol registry (--protocol accepts these names)
  trace          aggregate-chain trajectory with domain-visit breakdown
  domains        render the Figure 1a domain partition
  markov         exact expected convergence time for small n
  coins          exact coin-competition probabilities
  impossibility  the §1.2 conflicting-sources construction
  baselines      comparison table over every registered protocol
  topology       any protocol on a non-complete graph (complete|er|regular|ring|star|barbell|smallworld)
  conflict       long-run occupancy under honest conflicting stubborn sources
  sweep          run a parameter grid × seed range from a JSON spec file:
                 `fet sweep spec.json [--workers W] [--manifest PATH] [--limit K] [--quiet]`
                 --manifest checkpoints every episode; re-running resumes and the
                 finalized file is byte-identical whatever the interruptions/workers
                 (worker default: $FET_SWEEP_WORKERS, else all cores)
  gauntlet       robustness suite: fault-schedule sweeps with per-switch recovery reports:
                 `fet gauntlet spec.json [--workers W] [--manifest STEM] [--limit K] [--quiet]`
                 the spec adds `switch_period`/`corruption`/`switches` axes and an optional
                 `protocols` array; each protocol checkpoints into <STEM>.<protocol>.jsonl
  serve          sweep daemon: `fet serve [--addr 127.0.0.1:7878] [--workers W]`
                 POST /sweep streams NDJSON episode records; GET /status reports the queue

common flags: --n N  --protocol NAME  --ell L  --c C  --seed S  --delta D
              --steps K  --reps R  --init all-wrong|all-correct|random
              --fidelity agent|binomial|without-replacement|aggregate
              --scheduler sync|async  --agent-level (= --fidelity agent)
              --mode fused|fused-parallel (round execution; default: auto-select, sharding
                     across cores from n >= 2*10^6; applies to every per-agent fidelity
                     and to `topology` graph runs)
              --threads N (shard/worker count for --mode fused-parallel; default: all cores)
              --storage auto|typed|bit-plane (state representation; bit-plane packs opinions
                     64/word for packable protocols on either scheduler — same trajectory,
                     ~8x less state; auto switches at n >= 10^7)
              --k K  --p P  --q Q  --correct 0|1  --max-rounds R
topology:     --graph NAME  --degree D  --beta B  (accepts --mode fused|fused-parallel)
conflict:     --k0 K0  --k1 K1  --burn-in B  --window W";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, CliError> {
    let mut flags = Flags::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else {
            return Err(CliError::Usage(format!("expected a --flag, got `{a}`")));
        };
        // Boolean switches.
        if name == "agent-level" || name == "quick" || name == "quiet" {
            flags.insert(name.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(CliError::Usage(format!("flag --{name} needs a value")));
        };
        flags.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, CliError> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid value for --{name}: `{v}`"))),
    }
}

fn get_init(flags: &Flags) -> Result<InitialCondition, CliError> {
    match flags.get("init").map(String::as_str) {
        None | Some("all-wrong") => Ok(InitialCondition::AllWrong),
        Some("all-correct") => Ok(InitialCondition::AllCorrect),
        Some("random") => Ok(InitialCondition::Random),
        Some(other) => Err(CliError::Usage(format!("unknown --init `{other}`"))),
    }
}

fn get_correct(flags: &Flags) -> Result<Opinion, CliError> {
    match get::<u8>(flags, "correct", 1)? {
        0 => Ok(Opinion::Zero),
        1 => Ok(Opinion::One),
        other => Err(CliError::Usage(format!(
            "--correct must be 0 or 1, got {other}"
        ))),
    }
}

fn get_fidelity(flags: &Flags) -> Result<Option<Fidelity>, CliError> {
    match flags.get("fidelity").map(String::as_str) {
        None => Ok(flags.contains_key("agent-level").then_some(Fidelity::Agent)),
        Some("agent") => Ok(Some(Fidelity::Agent)),
        Some("binomial") => Ok(Some(Fidelity::Binomial)),
        Some("without-replacement") => Ok(Some(Fidelity::WithoutReplacement)),
        Some("aggregate") => Ok(Some(Fidelity::Aggregate)),
        Some(other) => Err(CliError::Usage(format!("unknown --fidelity `{other}`"))),
    }
}

fn get_mode(flags: &Flags) -> Result<ExecutionMode, CliError> {
    let mode = match flags.get("mode").map(String::as_str) {
        None | Some("auto") => ExecutionMode::Auto,
        Some("fused") => ExecutionMode::Fused,
        Some("fused-parallel") => {
            // Default thread count: every core the host offers.
            let default = std::thread::available_parallelism().map_or(1, |p| p.get() as u32);
            let threads: u32 = get(flags, "threads", default)?;
            if threads == 0 {
                return Err(CliError::Usage("--threads must be at least 1".into()));
            }
            ExecutionMode::FusedParallel { threads }
        }
        Some(other) => return Err(CliError::Usage(format!("unknown --mode `{other}`"))),
    };
    if flags.contains_key("threads") && !matches!(mode, ExecutionMode::FusedParallel { .. }) {
        return Err(CliError::Usage(
            "--threads applies to --mode fused-parallel only".into(),
        ));
    }
    Ok(mode)
}

fn get_storage(flags: &Flags) -> Result<Storage, CliError> {
    match flags.get("storage").map(String::as_str) {
        None | Some("auto") => Ok(Storage::Auto),
        Some("typed") => Ok(Storage::Typed),
        Some("bit-plane") => Ok(Storage::BitPlane),
        Some(other) => Err(CliError::Usage(format!(
            "unknown --storage `{other}` (auto|typed|bit-plane)"
        ))),
    }
}

fn get_scheduler(flags: &Flags) -> Result<Scheduler, CliError> {
    match flags.get("scheduler").map(String::as_str) {
        None | Some("sync") => Ok(Scheduler::Synchronous),
        Some("async") => Ok(Scheduler::Asynchronous),
        Some(other) => Err(CliError::Usage(format!("unknown --scheduler `{other}`"))),
    }
}

/// Assembles the common `Simulation` builder axes from the flag map.
fn builder_from(flags: &Flags) -> Result<SimulationBuilder, CliError> {
    let mut b = Simulation::builder()
        .seed(get(flags, "seed", 0)?)
        .sample_constant(get(flags, "c", 4.0)?)
        .correct(get_correct(flags)?)
        .init(get_init(flags)?)
        .execution_mode(get_mode(flags)?)
        .scheduler(get_scheduler(flags)?)
        .storage(get_storage(flags)?);
    if let Some(e) = flags.get("ell") {
        b = b.ell(
            e.parse()
                .map_err(|_| CliError::Usage(format!("invalid --ell `{e}`")))?,
        );
    }
    if let Some(f) = get_fidelity(flags)? {
        b = b.fidelity(f);
    }
    if let Some(r) = flags.get("max-rounds") {
        b = b.max_rounds(
            r.parse()
                .map_err(|_| CliError::Usage(format!("invalid --max-rounds `{r}`")))?,
        );
    }
    if let Some(name) = flags.get("protocol") {
        b = b.protocol_name(name.clone());
    }
    Ok(b)
}

fn cmd_run(flags: &Flags) -> Result<(), CliError> {
    let n: u64 = get(flags, "n", 10_000)?;
    let init = get_init(flags)?;
    let mut sim = builder_from(flags)?
        .population(n)
        .build()
        .map_err(|e| e.to_string())?;
    let report = sim.run();
    println!(
        "n = {n}, protocol = {}, samples/round = {}, init = {}, mode = {}, storage = {} \
         ({} state bytes), seed = {}",
        report.protocol,
        report.samples_per_round,
        init.label(),
        report.mode,
        report.storage,
        report.resident_bytes,
        get::<u64>(flags, "seed", 0)?
    );
    match report.converged_at() {
        Some(t) => {
            println!(
                "converged at round {t} (log^2.5 n = {:.1})",
                (n as f64).ln().powf(2.5)
            )
        }
        None => println!(
            "did NOT converge within {} rounds",
            report.report.rounds_run
        ),
    }
    println!(
        "final fraction correct: {:.4}",
        report.report.final_fraction_correct
    );
    Ok(())
}

fn cmd_protocols() -> Result<(), CliError> {
    let registry = ProtocolRegistry::with_builtins();
    let params = ProtocolParams::for_population(10_000, 4.0);
    let mut table = Table::new(
        [
            "name",
            "samples/round",
            "passive",
            "aggregate-exact",
            "fused-kernel",
            "bits/agent",
            "packed-planes",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for name in registry.names() {
        let p = registry.build(name, &params).map_err(|e| e.to_string())?;
        table.add_row(vec![
            name.to_string(),
            p.samples_per_round().to_string(),
            if p.is_passive() { "yes" } else { "no" }.to_string(),
            if p.aggregate_ell().is_some() {
                "yes"
            } else {
                "—"
            }
            .to_string(),
            // Whether `--mode fused` (and auto-selection) hits a
            // hand-written single-pass kernel or the default per-step
            // fused loop. Either way the fused path covers every
            // per-agent fidelity and graph (`topology`) runs.
            if p.has_fused_kernel() {
                "specialized"
            } else {
                "default"
            }
            .to_string(),
            // Per-agent cost of the contiguous state buffer that
            // `run --protocol` executes on.
            p.memory_footprint().peak_bits().to_string(),
            // The bit-plane storage layout (`--storage bit-plane`):
            // opinion bit plus the packed aux plane width — e.g. FET at
            // this table's ℓ shows `1b+{bits}b` for its ⌈log₂(ℓ+1)⌉-bit
            // clock, voter/3-majority show the bare `1b` opinion plane.
            p.packed_planes().to_string(),
        ]);
    }
    println!("registered protocols (samples/round shown for n = 10000, c = 4):");
    print!("{table}");
    println!(
        "the fused-kernel column applies to every per-agent fidelity and to graph \
         runs (`fet topology --mode fused|fused-parallel`) alike."
    );
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), CliError> {
    let n: u64 = get(flags, "n", 100_000)?;
    let seed: u64 = get(flags, "seed", 0)?;
    let delta: f64 = get(flags, "delta", 0.05)?;
    let correct = get_correct(flags)?;
    let spec = ProblemSpec::single_source(n, correct).map_err(|e| e.to_string())?;
    let ell = (get::<f64>(flags, "c", 4.0)? * (n as f64).ln()).ceil() as u32;
    let mut chain = AggregateFetChain::all_wrong(spec, ell, seed).map_err(|e| e.to_string())?;
    let budget = (500.0 * (n as f64).ln().powf(2.5)).ceil() as u64;
    let (report, traj) = chain.run_recording(budget, ConvergenceCriterion::new(2));
    let params = DomainParams::new(n, delta).map_err(|e| e.to_string())?;
    let trace = DomainTrace::from_trajectory(&params, &traj);
    println!("n = {n}, ℓ = {ell}, converged at {:?}", report.converged_at);
    println!("domain visits:");
    for v in trace.visits() {
        println!(
            "  round {:>6}: {:>8} rounds in {}",
            v.start, v.dwell, v.domain
        );
    }
    Ok(())
}

fn cmd_domains(flags: &Flags) -> Result<(), CliError> {
    let n: u64 = get(flags, "n", 10_000)?;
    let delta: f64 = get(flags, "delta", 0.05)?;
    let steps: usize = get(flags, "steps", 60)?;
    if steps < 2 {
        return Err(CliError::Usage("--steps must be at least 2".into()));
    }
    let params = DomainParams::new(n, delta).map_err(|e| e.to_string())?;
    let cells: Vec<Vec<String>> = (0..steps)
        .map(|j| {
            let y = j as f64 / (steps - 1) as f64;
            (0..steps)
                .map(|i| {
                    let x = i as f64 / (steps - 1) as f64;
                    params.classify(x, y).to_string()
                })
                .collect()
        })
        .collect();
    let mut map = CategoricalMap::new(cells);
    map.title(format!(
        "Figure 1a partition, n = {n}, δ = {delta} (y grows upward)"
    ));
    print!("{}", map.render_flipped());
    Ok(())
}

fn cmd_markov(flags: &Flags) -> Result<(), CliError> {
    let n: u64 = get(flags, "n", 16)?;
    let ell: u64 = get(flags, "ell", 6)?;
    let chain = ExactChain::new(n, ell).map_err(|e| e.to_string())?;
    let expected = chain.expected_time_all_wrong().map_err(|e| e.to_string())?;
    println!("exact E[t_con] from the all-wrong state (n = {n}, ℓ = {ell}): {expected:.3} rounds");
    let profile = chain.absorption_profile(1, 1, 50);
    println!("P[converged by t]:");
    for (t, p) in profile.iter().enumerate().step_by(5) {
        println!("  t = {t:>3}: {p:.4}");
    }
    Ok(())
}

fn cmd_coins(flags: &Flags) -> Result<(), CliError> {
    let k: u64 = get(flags, "k", 256)?;
    let p: f64 = get(flags, "p", 0.45)?;
    let q: f64 = get(flags, "q", 0.55)?;
    let cc = CoinCompetition::try_new(k, p, q).map_err(|e| e.to_string())?;
    println!("B_{k}({p}) vs B_{k}({q}):");
    println!("  P(first wins)  = {:.6}", cc.p_first_wins());
    println!("  P(tie)         = {:.6}", cc.p_tie());
    println!("  P(second wins) = {:.6}", cc.p_second_wins());
    println!("  E|difference|  = {:.6}", cc.expected_abs_difference());
    Ok(())
}

fn cmd_impossibility(flags: &Flags) -> Result<(), CliError> {
    let n: u64 = get(flags, "n", 1024)?;
    let seed: u64 = get(flags, "seed", 0)?;
    let out = ImpossibilityScenario::standard(n, seed).run();
    println!("n = {n}:");
    println!(
        "  scenario 1 (honest majority) converged at: {:?}",
        out.scenario1_convergence
    );
    println!(
        "  scenario 2 (conflicting sources, states copied): frozen for {} rounds{}",
        out.frozen_rounds,
        if out.escaped {
            " then ESCAPED (unexpected!)"
        } else {
            " (never escaped)"
        }
    );
    println!(
        "  contrast (single honest source): converged at {:?}",
        out.contrast_convergence
    );
    Ok(())
}

fn cmd_baselines(flags: &Flags) -> Result<(), CliError> {
    let n: u64 = get(flags, "n", 1_000)?;
    let reps: u64 = get(flags, "reps", 10)?;
    let seed: u64 = get(flags, "seed", 0)?;
    let max_rounds: u64 = get(flags, "max-rounds", 30_000)?;
    let init = get_init(flags)?;
    let registry = ProtocolRegistry::with_builtins();
    let mut table = Table::new(
        ["protocol", "success", "mean t_con"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    // One row per registered protocol — no per-protocol dispatch here;
    // adding a registry entry adds a row.
    for name in registry.names() {
        let mut times = Vec::new();
        let mut ok = 0u64;
        for rep in 0..reps {
            let mut sim = Simulation::builder()
                .population(n)
                .protocol_name(name)
                .init(init)
                .max_rounds(max_rounds)
                .seed(seed.wrapping_add(rep * 7919 + 1))
                .build()
                .map_err(|e| e.to_string())?;
            let out = sim.run();
            if let Some(t) = out.converged_at() {
                ok += 1;
                times.push(t as f64);
            }
        }
        let mean = if times.is_empty() {
            "—".to_string()
        } else {
            format!("{:.1}", times.iter().sum::<f64>() / times.len() as f64)
        };
        table.add_row(vec![
            name.to_string(),
            format!("{:.2}", ok as f64 / reps as f64),
            mean,
        ]);
    }
    println!("n = {n}, init = {}, {reps} replicates:", init.label());
    print!("{table}");
    Ok(())
}

fn cmd_topology(flags: &Flags) -> Result<(), CliError> {
    use fet_sweep::spec::TopologySpec;
    use fet_sweep::SweepError;
    use fet_topology::graph::GraphStats;

    let n: u32 = get(flags, "n", 1_000)?;
    let name = flags.get("graph").map_or("regular", String::as_str);
    // The sweep's builder, so a one-cell topology sweep at this seed runs
    // the same graph.
    let graph = TopologySpec {
        graph: name.to_string(),
        degree: get(flags, "degree", 32)?,
        beta: get(flags, "beta", 0.1)?,
        seed: get(flags, "seed", 0)?,
    }
    .build(n)
    .map_err(|e| match e {
        SweepError::Spec { detail } => detail,
        other => other.to_string(),
    })?;
    let stats = GraphStats::of(&graph);
    println!("graph {name}: {stats}");
    let budget: u64 = get(flags, "max-rounds", 20_000)?;
    let mut sim = builder_from(flags)?
        .topology(graph)
        .max_rounds(budget)
        .stability_window(5)
        .build()
        .map_err(|e| e.to_string())?;
    let report = sim.run();
    match report.converged_at() {
        Some(t) => println!("protocol {} converged at round {t}", report.protocol),
        None => println!(
            "protocol {} did NOT converge within {budget} rounds; stalled at {:.1}% correct",
            report.protocol,
            100.0 * sim.fraction_correct()
        ),
    }
    Ok(())
}

fn cmd_conflict(flags: &Flags) -> Result<(), CliError> {
    use fet_adversary::conflict::ConflictEngine;

    let n: u64 = get(flags, "n", 2_000)?;
    let k0: u64 = get(flags, "k0", n / 50)?;
    let k1: u64 = get(flags, "k1", n / 50 * 4)?;
    let seed: u64 = get(flags, "seed", 0)?;
    let burn_in: u64 = get(flags, "burn-in", 500)?;
    let window: u64 = get(flags, "window", 2_000)?;
    let ell = (get::<f64>(flags, "c", 4.0)? * (n as f64).ln()).ceil() as u32;
    let protocol = FetProtocol::new(ell).map_err(|e| e.to_string())?;
    let mut engine =
        ConflictEngine::new(protocol, n, k0, k1, 0.5, seed).map_err(|e| e.to_string())?;
    let out = engine.run_measure(burn_in, window);
    println!(
        "n = {n}, stubborn k0 = {k0} (zeros) vs k1 = {k1} (ones), ℓ = {ell}, \
         burn-in {burn_in}, window {window}"
    );
    println!("  time-averaged x̄      : {:.4}", out.mean_x);
    println!("  fraction of t with x>½: {:.4}", out.frac_above_half);
    println!(
        "  excursion range       : [{:.3}, {:.3}]",
        out.min_x, out.max_x
    );
    println!("  final x               : {:.4}", out.final_x);
    println!(
        "\nreminder: with both stubborn groups non-empty there is no absorbing\n\
         state — FET oscillates; the majority only tilts the occupancy (E19)."
    );
    Ok(())
}

/// Worker-count resolution for the episode tier: `--workers`, then the
/// `FET_SWEEP_WORKERS` environment variable, then every host core.
/// (Distinct from `FET_PARALLEL_WORKERS`, which caps the *round-sharding*
/// tier inside a single fused-parallel simulation.)
fn sweep_workers(flags: &Flags) -> Result<usize, CliError> {
    let workers = match flags.get("workers") {
        Some(w) => w
            .parse()
            .map_err(|_| CliError::Usage(format!("invalid --workers `{w}`")))?,
        None => match std::env::var("FET_SWEEP_WORKERS") {
            Ok(w) => w
                .parse()
                .map_err(|_| format!("invalid FET_SWEEP_WORKERS `{w}`"))?,
            Err(_) => std::thread::available_parallelism().map_or(1, |p| p.get()),
        },
    };
    if workers == 0 {
        return Err(CliError::Usage("--workers must be at least 1".into()));
    }
    Ok(workers)
}

fn cmd_sweep(spec_path: Option<&str>, flags: &Flags) -> Result<(), CliError> {
    let Some(path) = spec_path
        .map(str::to_string)
        .or_else(|| flags.get("spec").cloned())
    else {
        return Err(CliError::Usage(
            "sweep needs a spec file: `fet sweep <spec.json>`".into(),
        ));
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let spec = SweepSpec::parse(&text).map_err(|e| e.to_string())?;
    let workers = sweep_workers(flags)?;
    let episode_limit = match flags.get("limit") {
        None => None,
        Some(k) => Some(
            k.parse()
                .map_err(|_| CliError::Usage(format!("invalid --limit `{k}`")))?,
        ),
    };
    let options = SweepOptions {
        workers,
        manifest: flags.get("manifest").map(PathBuf::from),
        episode_limit,
        progress: !flags.contains_key("quiet"),
    };
    let outcome = run_sweep(&spec, &options).map_err(|e| e.to_string())?;
    println!(
        "sweep {}: {} cells × {} seeds = {} episodes | {} resumed, {} run now | \
         {:.2}s, {:.1} ep/s, {workers} workers",
        spec.hash(),
        spec.cell_count(),
        spec.seeds.count,
        spec.episode_count(),
        outcome.resumed,
        outcome.completed_now,
        outcome.elapsed.as_secs_f64(),
        outcome.throughput(),
    );
    println!(
        "warm cache: {} protocol instances, {} graphs",
        outcome.protocols_cached, outcome.graphs_cached
    );
    match outcome.report {
        Some(report) => println!("{report}"),
        None => println!(
            "partial: {} of {} episodes checkpointed; re-run the same command to resume",
            outcome.records.len(),
            spec.episode_count()
        ),
    }
    Ok(())
}

fn cmd_gauntlet(spec_path: Option<&str>, flags: &Flags) -> Result<(), CliError> {
    let Some(path) = spec_path
        .map(str::to_string)
        .or_else(|| flags.get("spec").cloned())
    else {
        return Err(CliError::Usage(
            "gauntlet needs a spec file: `fet gauntlet <spec.json>`".into(),
        ));
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let spec = GauntletSpec::parse(&text).map_err(|e| e.to_string())?;
    let workers = sweep_workers(flags)?;
    let episode_limit = match flags.get("limit") {
        None => None,
        Some(k) => Some(
            k.parse()
                .map_err(|_| CliError::Usage(format!("invalid --limit `{k}`")))?,
        ),
    };
    let options = GauntletOptions {
        workers,
        manifest_stem: flags.get("manifest").map(PathBuf::from),
        episode_limit,
        progress: !flags.contains_key("quiet"),
    };
    let outcome = run_gauntlet(&spec, &options).map_err(|e| e.to_string())?;
    let protocols: Vec<&str> = spec.protocols().collect();
    println!(
        "gauntlet over {{{}}}: {} episodes total | {} resumed, {} run now | {workers} workers",
        protocols.join(", "),
        spec.episode_count(),
        outcome.resumed(),
        outcome.completed_now(),
    );
    for (p, (_, sweep)) in outcome.outcomes.iter().zip(spec.sweeps()) {
        println!(
            "  {}: {} of {} episodes, {:.2}s, {:.1} ep/s",
            p.protocol,
            p.outcome.records.len(),
            sweep.episode_count(),
            p.outcome.elapsed.as_secs_f64(),
            p.outcome.throughput(),
        );
    }
    match outcome.report {
        Some(report) => println!("{report}"),
        None => {
            println!("partial: re-run the same command to resume from the checkpoint manifests")
        }
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), CliError> {
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let workers = sweep_workers(flags)?;
    let server = SweepServer::bind(&addr, workers).map_err(|e| e.to_string())?;
    println!(
        "fet serve listening on http://{} ({workers} workers)",
        server.local_addr()
    );
    println!("  POST /sweep   submit a spec document; the response streams NDJSON episode records");
    println!("  GET  /status  queue depth, in-flight episodes, throughput counters");
    server.run_forever()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(args: &[&str]) -> Result<Flags, CliError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_flags(&owned)
    }

    #[test]
    fn parse_flags_accepts_value_pairs_and_switches() {
        let f = flags_of(&["--n", "100", "--agent-level", "--seed", "7"]).unwrap();
        assert_eq!(f.get("n").map(String::as_str), Some("100"));
        assert_eq!(f.get("agent-level").map(String::as_str), Some("true"));
        assert_eq!(f.get("seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn parse_flags_rejects_bare_words_and_missing_values() {
        assert!(flags_of(&["oops"]).is_err());
        assert!(flags_of(&["--n"]).is_err());
    }

    #[test]
    fn get_parses_with_default() {
        let f = flags_of(&["--n", "42"]).unwrap();
        assert_eq!(get::<u64>(&f, "n", 7).unwrap(), 42);
        assert_eq!(get::<u64>(&f, "missing", 7).unwrap(), 7);
        assert!(get::<u64>(&f, "n", 7).is_ok());
        let bad = flags_of(&["--n", "forty-two"]).unwrap();
        assert!(get::<u64>(&bad, "n", 7).is_err());
    }

    #[test]
    fn get_init_covers_all_spellings() {
        assert_eq!(
            get_init(&flags_of(&[]).unwrap()).unwrap(),
            InitialCondition::AllWrong
        );
        assert_eq!(
            get_init(&flags_of(&["--init", "all-correct"]).unwrap()).unwrap(),
            InitialCondition::AllCorrect
        );
        assert_eq!(
            get_init(&flags_of(&["--init", "random"]).unwrap()).unwrap(),
            InitialCondition::Random
        );
        assert!(get_init(&flags_of(&["--init", "sideways"]).unwrap()).is_err());
    }

    #[test]
    fn get_correct_accepts_only_bits() {
        assert_eq!(get_correct(&flags_of(&[]).unwrap()).unwrap(), Opinion::One);
        assert_eq!(
            get_correct(&flags_of(&["--correct", "0"]).unwrap()).unwrap(),
            Opinion::Zero
        );
        assert!(get_correct(&flags_of(&["--correct", "2"]).unwrap()).is_err());
    }

    #[test]
    fn fidelity_flag_and_agent_level_switch() {
        let f = flags_of(&["--n", "500", "--agent-level"]).unwrap();
        assert_eq!(get_fidelity(&f).unwrap(), Some(Fidelity::Agent));
        let f = flags_of(&["--n", "500"]).unwrap();
        assert_eq!(get_fidelity(&f).unwrap(), None, "facade default applies");
        let f = flags_of(&["--fidelity", "aggregate"]).unwrap();
        assert_eq!(get_fidelity(&f).unwrap(), Some(Fidelity::Aggregate));
        let f = flags_of(&["--fidelity", "sideways"]).unwrap();
        assert!(get_fidelity(&f).is_err());
    }

    #[test]
    fn mode_flag() {
        assert_eq!(
            get_mode(&flags_of(&[]).unwrap()).unwrap(),
            ExecutionMode::Auto
        );
        assert!(get_mode(&flags_of(&["--mode", "batched"]).unwrap()).is_err());
        assert_eq!(
            get_mode(&flags_of(&["--mode", "fused"]).unwrap()).unwrap(),
            ExecutionMode::Fused
        );
        assert!(get_mode(&flags_of(&["--mode", "warp"]).unwrap()).is_err());
        assert_eq!(
            get_mode(&flags_of(&["--mode", "fused-parallel", "--threads", "4"]).unwrap()).unwrap(),
            ExecutionMode::FusedParallel { threads: 4 }
        );
        // Defaults to the host's core count — at least one thread.
        assert!(matches!(
            get_mode(&flags_of(&["--mode", "fused-parallel"]).unwrap()).unwrap(),
            ExecutionMode::FusedParallel { threads } if threads >= 1
        ));
        assert!(
            get_mode(&flags_of(&["--mode", "fused-parallel", "--threads", "0"]).unwrap()).is_err()
        );
        assert!(
            get_mode(&flags_of(&["--mode", "fused", "--threads", "4"]).unwrap()).is_err(),
            "--threads without fused-parallel must be rejected"
        );
    }

    #[test]
    fn storage_flag() {
        assert_eq!(get_storage(&flags_of(&[]).unwrap()).unwrap(), Storage::Auto);
        assert_eq!(
            get_storage(&flags_of(&["--storage", "auto"]).unwrap()).unwrap(),
            Storage::Auto
        );
        assert_eq!(
            get_storage(&flags_of(&["--storage", "typed"]).unwrap()).unwrap(),
            Storage::Typed
        );
        assert_eq!(
            get_storage(&flags_of(&["--storage", "bit-plane"]).unwrap()).unwrap(),
            Storage::BitPlane
        );
        assert!(get_storage(&flags_of(&["--storage", "sparse"]).unwrap()).is_err());
    }

    #[test]
    fn builder_from_threads_storage_through() {
        let f = flags_of(&["--storage", "bit-plane"]).unwrap();
        let sim = builder_from(&f).unwrap().population(200).build().unwrap();
        assert_eq!(sim.storage(), Storage::BitPlane);
        // Incompatible axes surface the facade's build error.
        let f = flags_of(&["--storage", "bit-plane", "--fidelity", "aggregate"]).unwrap();
        let err = builder_from(&f)
            .unwrap()
            .population(200)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("offending axis"), "{err}");
    }

    #[test]
    fn scheduler_flag() {
        assert_eq!(
            get_scheduler(&flags_of(&[]).unwrap()).unwrap(),
            Scheduler::Synchronous
        );
        assert_eq!(
            get_scheduler(&flags_of(&["--scheduler", "async"]).unwrap()).unwrap(),
            Scheduler::Asynchronous
        );
        assert!(get_scheduler(&flags_of(&["--scheduler", "warp"]).unwrap()).is_err());
    }

    #[test]
    fn sweep_workers_flag_beats_default_and_rejects_zero() {
        let f = flags_of(&["--workers", "3"]).unwrap();
        assert_eq!(sweep_workers(&f).unwrap(), 3);
        let f = flags_of(&["--workers", "0"]).unwrap();
        assert!(sweep_workers(&f).is_err());
        let f = flags_of(&["--workers", "three"]).unwrap();
        assert!(sweep_workers(&f).is_err());
        assert!(sweep_workers(&flags_of(&[]).unwrap()).unwrap() >= 1);
    }

    #[test]
    fn sweep_requires_a_spec_path() {
        let err = cmd_sweep(None, &flags_of(&[]).unwrap()).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(e) if e.contains("spec file")),
            "{err:?}"
        );
        let err = cmd_sweep(Some("/nonexistent/spec.json"), &flags_of(&[]).unwrap()).unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(e) if e.contains("cannot read")),
            "{err:?}"
        );
    }

    #[test]
    fn gauntlet_requires_a_spec_path() {
        let err = cmd_gauntlet(None, &flags_of(&[]).unwrap()).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(e) if e.contains("spec file")),
            "{err:?}"
        );
        let err =
            cmd_gauntlet(Some("/nonexistent/spec.json"), &flags_of(&[]).unwrap()).unwrap_err();
        assert!(
            matches!(&err, CliError::Failed(e) if e.contains("cannot read")),
            "{err:?}"
        );
    }

    #[test]
    fn builder_from_accepts_protocol_names() {
        let f = flags_of(&["--protocol", "voter"]).unwrap();
        let sim = builder_from(&f).unwrap().population(100).build().unwrap();
        let _ = sim;
    }
}
