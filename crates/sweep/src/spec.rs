//! [`SweepSpec`]: a parameter grid × seed range, and how one episode of it
//! becomes a [`Simulation`].
//!
//! A sweep is the paper's actual scientific workload: convergence-time
//! distributions and phase diagrams over `(seed × n × noise × ℓ)` grids.
//! The spec enumerates the grid deterministically — cells in row-major
//! `n × noise × ℓ` order, seeds consecutive within each cell — so an
//! episode is fully identified by its flat index, and every episode's
//! trajectory is a pure function of the deterministic key
//! `(seed, shard count, cell parameters)` the workspace's determinism
//! contract already pins.
//!
//! Specs are written as JSON documents (see the crate docs for the
//! format); [`SweepSpec::parse`] validates eagerly so a malformed spec
//! fails before any episode runs.

use crate::error::SweepError;
use crate::json::Json;
use fet_core::config::ell_for_population;
use fet_core::opinion::Opinion;
use fet_sim::convergence::{ConvergenceReport, RecoveryRecord};
use fet_sim::engine::{ExecutionMode, Fidelity};
use fet_sim::fault::{FaultEvent, FaultEventKind, FaultPlan, FaultSchedule};
use fet_sim::init::InitialCondition;
use fet_sim::simulation::{default_max_rounds, Simulation, SimulationBuilder};
use fet_stats::rng::SeedTree;

/// Consecutive root seeds: `base, base+1, …, base+count-1` per grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedRange {
    /// First seed.
    pub base: u64,
    /// Number of episodes per grid cell.
    pub count: u64,
}

/// A non-complete communication graph, rebuilt per population size and
/// shared across every episode that uses it (see
/// [`WarmCache`](crate::cache::WarmCache)).
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// Builder name: `er`, `regular`, `ring`, `star`, `barbell`,
    /// `smallworld`.
    pub graph: String,
    /// Degree parameter (builder-specific).
    pub degree: u32,
    /// Rewiring probability (smallworld only).
    pub beta: f64,
    /// Seed of the graph construction RNG (independent of episode seeds).
    pub seed: u64,
}

/// One grid cell: the parameters every episode of the cell shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellParams {
    /// Population size.
    pub n: u64,
    /// Observation bit-flip probability ([`FaultPlan::with_noise`]).
    pub noise: f64,
    /// Explicit `ℓ` override; `None` derives `ℓ = ⌈c·ln n⌉` from the
    /// spec's sample constant.
    pub ell: Option<u32>,
    /// Trend-switch period `P`: the episode's fault schedule retargets
    /// the correct opinion every `P` rounds, `switches` times. `None`
    /// means the cell runs fault-schedule-free (the pre-gauntlet shape).
    pub switch_period: Option<u64>,
    /// State-corruption fraction: each switch window additionally rewrites
    /// this Bernoulli fraction of agent states at its midpoint.
    pub corruption: Option<f64>,
}

impl CellParams {
    /// The canonical JSON form of the cell (manifest key material). The
    /// gauntlet members are emitted only when present, so specs without
    /// the robustness axes keep their pre-gauntlet manifests byte-stable.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("n".to_string(), Json::Int(self.n as i64)),
            ("noise".to_string(), Json::from_f64(self.noise)),
        ];
        if let Some(ell) = self.ell {
            members.push(("ell".to_string(), Json::Int(i64::from(ell))));
        }
        if let Some(p) = self.switch_period {
            members.push(("switch_period".to_string(), Json::Int(p as i64)));
        }
        if let Some(f) = self.corruption {
            members.push(("corruption".to_string(), Json::from_f64(f)));
        }
        Json::Object(members)
    }
}

/// The sweep: a grid of [`CellParams`] × a [`SeedRange`], plus everything
/// the episodes share.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Registry name of the protocol (`"fet"`, `"voter"`, …).
    pub protocol: String,
    /// Population-size axis (non-empty).
    pub n: Vec<u64>,
    /// Observation-noise axis (defaults to the single point `0`).
    pub noise: Vec<f64>,
    /// Explicit `ℓ` axis; empty means one derived-ℓ point per cell.
    pub ell: Vec<u32>,
    /// Trend-switch-period axis (rounds between switches); empty means no
    /// fault schedules — the pre-gauntlet sweep shape.
    pub switch_period: Vec<u64>,
    /// State-corruption-fraction axis; empty means no corruption events.
    /// Requires a non-empty `switch_period` (corruption events fire at
    /// switch-window midpoints).
    pub corruption: Vec<f64>,
    /// Trend switches per episode when `switch_period` is set (default 3).
    pub switches: u64,
    /// Sample constant `c` for derived `ℓ` (default 4).
    pub sample_constant: f64,
    /// Seeds per cell.
    pub seeds: SeedRange,
    /// Observation fidelity for complete-graph runs (default binomial).
    pub fidelity: Fidelity,
    /// Round implementation. Defaults to [`ExecutionMode::Fused`] — unlike
    /// `Auto`, its trajectories don't depend on the host's core count, so
    /// sweep manifests replay bit-identically across machines.
    pub mode: ExecutionMode,
    /// Initial condition (default all-wrong).
    pub init: InitialCondition,
    /// Round budget per episode (default [`default_max_rounds`] of the
    /// cell's `n`).
    pub max_rounds: Option<u64>,
    /// Convergence stability window (default 3).
    pub stability_window: u64,
    /// Optional non-complete communication graph.
    pub topology: Option<TopologySpec>,
    /// Record full `x_t` trajectories into episode records (default off —
    /// manifests stay compact).
    pub record_trajectory: bool,
}

impl SweepSpec {
    /// A single-cell spec: one `(n, noise, ℓ)` point swept over `seeds`
    /// consecutive seeds from `seed_base` — the shape
    /// `fet_sim::batch::run_replicated` covers, expressed as a degenerate
    /// grid.
    pub fn single_cell(n: u64, seed_base: u64, seeds: u64) -> SweepSpec {
        SweepSpec {
            protocol: "fet".to_string(),
            n: vec![n],
            noise: vec![0.0],
            ell: Vec::new(),
            switch_period: Vec::new(),
            corruption: Vec::new(),
            switches: 3,
            sample_constant: 4.0,
            seeds: SeedRange {
                base: seed_base,
                count: seeds,
            },
            fidelity: Fidelity::Binomial,
            mode: ExecutionMode::Fused,
            init: InitialCondition::AllWrong,
            max_rounds: None,
            stability_window: 3,
            topology: None,
            record_trajectory: false,
        }
    }

    /// Parses and validates a spec document.
    ///
    /// # Errors
    ///
    /// [`SweepError::Json`] on malformed JSON, [`SweepError::Spec`] when a
    /// field is missing, mistyped, out of range, or names an unknown
    /// protocol/graph/fidelity/mode.
    pub fn parse(text: &str) -> Result<SweepSpec, SweepError> {
        let doc = Json::parse(text)?;
        if !matches!(doc, Json::Object(_)) {
            return Err(SweepError::spec("the spec must be a JSON object"));
        }
        let known = [
            "protocol",
            "n",
            "noise",
            "ell",
            "switch_period",
            "corruption",
            "switches",
            "sample_constant",
            "seeds",
            "fidelity",
            "mode",
            "threads",
            "init",
            "max_rounds",
            "stability_window",
            "topology",
            "record_trajectory",
        ];
        if let Json::Object(members) = &doc {
            for (key, _) in members {
                if !known.contains(&key.as_str()) {
                    return Err(SweepError::spec(format!(
                        "unknown field `{key}` (known: {})",
                        known.join(", ")
                    )));
                }
            }
        }
        let protocol = match doc.get("protocol") {
            None => "fet".to_string(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| SweepError::spec("`protocol` must be a string"))?
                .to_string(),
        };
        let n = u64_axis(&doc, "n")?
            .ok_or_else(|| SweepError::spec("`n` is required: an array of population sizes"))?;
        let noise = match f64_axis(&doc, "noise")? {
            None => vec![0.0],
            Some(v) => v,
        };
        let ell = match u64_axis(&doc, "ell")? {
            None => Vec::new(),
            Some(v) => v
                .into_iter()
                .map(|e| {
                    u32::try_from(e).map_err(|_| SweepError::spec("`ell` entries must fit in u32"))
                })
                .collect::<Result<Vec<u32>, _>>()?,
        };
        let switch_period = u64_axis(&doc, "switch_period")?.unwrap_or_default();
        let corruption = f64_axis(&doc, "corruption")?.unwrap_or_default();
        let switches = match doc.get("switches") {
            None => 3,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| SweepError::spec("`switches` must be a number"))?,
        };
        let sample_constant = match doc.get("sample_constant") {
            None => 4.0,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| SweepError::spec("`sample_constant` must be a number"))?,
        };
        let seeds = match doc.get("seeds") {
            None => SeedRange { base: 0, count: 1 },
            Some(v) => SeedRange {
                base: match v.get("base") {
                    None => 0,
                    Some(b) => b.as_u64().ok_or_else(|| {
                        SweepError::spec("`seeds.base` must be a non-negative integer")
                    })?,
                },
                count: v
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| SweepError::spec("`seeds` needs a numeric `count`"))?,
            },
        };
        let fidelity = match doc.get("fidelity").map(|v| v.as_str()) {
            // Graph sweeps draw each agent's observation from its own
            // neighborhood, so an omitted fidelity means `agent` there and
            // `binomial` elsewhere.
            None if doc.get("topology").is_some() => Fidelity::Agent,
            None => Fidelity::Binomial,
            Some(Some("binomial")) => Fidelity::Binomial,
            Some(Some("without-replacement")) => Fidelity::WithoutReplacement,
            Some(Some("agent")) => Fidelity::Agent,
            Some(Some(other)) => {
                return Err(SweepError::spec(format!(
                    "unknown `fidelity` `{other}` (binomial, without-replacement, agent; \
                     the aggregate chain is a single-run tool, not a sweep fidelity)"
                )));
            }
            Some(None) => return Err(SweepError::spec("`fidelity` must be a string")),
        };
        let threads = match doc.get("threads") {
            None => None,
            Some(v) => Some(
                u32::try_from(
                    v.as_u64()
                        .ok_or_else(|| SweepError::spec("`threads` must be a number"))?,
                )
                .map_err(|_| SweepError::spec("`threads` must fit in u32"))?,
            ),
        };
        let mode = match doc.get("mode").map(|v| v.as_str()) {
            // `batched` is the legacy spelling of the single-threaded,
            // host-independent mode, from before the batched pipeline was
            // folded into the fused round.
            None | Some(Some("fused" | "batched")) => ExecutionMode::Fused,
            Some(Some("auto")) => ExecutionMode::Auto,
            Some(Some("fused-parallel")) => ExecutionMode::FusedParallel {
                threads: threads.unwrap_or(1),
            },
            Some(Some(other)) => {
                return Err(SweepError::spec(format!(
                    "unknown `mode` `{other}` (auto, fused, fused-parallel)"
                )));
            }
            Some(None) => return Err(SweepError::spec("`mode` must be a string")),
        };
        if threads.is_some() && !matches!(mode, ExecutionMode::FusedParallel { .. }) {
            return Err(SweepError::spec(
                "`threads` applies to `\"mode\": \"fused-parallel\"` only",
            ));
        }
        let init = match doc.get("init").map(|v| v.as_str()) {
            None | Some(Some("all-wrong")) => InitialCondition::AllWrong,
            Some(Some("all-correct")) => InitialCondition::AllCorrect,
            Some(Some("random")) => InitialCondition::Random,
            Some(Some(other)) => {
                return Err(SweepError::spec(format!(
                    "unknown `init` `{other}` (all-wrong, all-correct, random)"
                )));
            }
            Some(None) => return Err(SweepError::spec("`init` must be a string")),
        };
        let max_rounds = match doc.get("max_rounds") {
            None => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| SweepError::spec("`max_rounds` must be a number"))?,
            ),
        };
        let stability_window = match doc.get("stability_window") {
            None => 3,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| SweepError::spec("`stability_window` must be a number"))?,
        };
        let topology = match doc.get("topology") {
            None => None,
            Some(t) => Some(TopologySpec {
                graph: t
                    .get("graph")
                    .and_then(Json::as_str)
                    .ok_or_else(|| SweepError::spec("`topology` needs a string `graph`"))?
                    .to_string(),
                degree: t.get("degree").and_then(Json::as_u64).unwrap_or(16) as u32,
                beta: t.get("beta").and_then(Json::as_f64).unwrap_or(0.1),
                seed: t.get("seed").and_then(Json::as_u64).unwrap_or(0),
            }),
        };
        let record_trajectory = match doc.get("record_trajectory") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| SweepError::spec("`record_trajectory` must be a bool"))?,
        };
        let spec = SweepSpec {
            protocol,
            n,
            noise,
            ell,
            switch_period,
            corruption,
            switches,
            sample_constant,
            seeds,
            fidelity,
            mode,
            init,
            max_rounds,
            stability_window,
            topology,
            record_trajectory,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the assembled spec, including a dry build of the first
    /// episode's simulation so protocol/fidelity/mode incompatibilities
    /// surface here, not mid-sweep.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.n.is_empty() {
            return Err(SweepError::spec(
                "`n` must list at least one population size",
            ));
        }
        if self.noise.is_empty() {
            return Err(SweepError::spec("`noise` must not be an empty array"));
        }
        if self.seeds.count == 0 {
            return Err(SweepError::spec("`seeds.count` must be at least 1"));
        }
        for &n in &self.n {
            if n < 2 {
                return Err(SweepError::spec(format!("population {n} is too small")));
            }
            if self.topology.is_some() && u32::try_from(n).is_err() {
                return Err(SweepError::spec("topology sweeps index agents as u32"));
            }
        }
        for &p in &self.noise {
            if !(0.0..=1.0).contains(&p) {
                return Err(SweepError::spec(format!("noise {p} is not a probability")));
            }
        }
        if !(self.sample_constant.is_finite() && self.sample_constant > 0.0) {
            return Err(SweepError::spec(
                "`sample_constant` must be positive and finite",
            ));
        }
        for &p in &self.switch_period {
            if p == 0 {
                return Err(SweepError::spec(
                    "`switch_period` entries must be at least 1 round",
                ));
            }
        }
        for &f in &self.corruption {
            if !(0.0..=1.0).contains(&f) {
                return Err(SweepError::spec(format!(
                    "corruption fraction {f} is not a probability"
                )));
            }
        }
        if !self.corruption.is_empty() && self.switch_period.is_empty() {
            return Err(SweepError::spec(
                "`corruption` events fire at switch-window midpoints; add a `switch_period` axis",
            ));
        }
        if !self.switch_period.is_empty() {
            if self.switches == 0 {
                return Err(SweepError::spec(
                    "`switches` must be at least 1 when `switch_period` is set",
                ));
            }
            // Every scheduled event must fit the episode budget, or the
            // recovery records would silently truncate.
            for &n in &self.n {
                let budget = self.max_rounds.unwrap_or_else(|| default_max_rounds(n));
                for &p in &self.switch_period {
                    let last = self
                        .switches
                        .saturating_mul(p)
                        .saturating_add(if self.corruption.is_empty() { 0 } else { p / 2 });
                    if last >= budget {
                        return Err(SweepError::spec(format!(
                            "the last scheduled event (round {last}) does not fit the \
                             {budget}-round budget for n = {n}; raise `max_rounds` or shrink \
                             `switches`/`switch_period`"
                        )));
                    }
                }
            }
        }
        let episodes = self.episode_count();
        const MAX_EPISODES: u64 = 10_000_000;
        if episodes > MAX_EPISODES {
            return Err(SweepError::spec(format!(
                "{episodes} episodes exceeds the {MAX_EPISODES} cap; shrink the grid"
            )));
        }
        if self.topology.is_some() && self.fidelity != Fidelity::Agent {
            return Err(SweepError::spec(
                "graph sweeps draw each agent's observation from its own neighborhood; \
                 omit `fidelity` or set `\"agent\"`",
            ));
        }
        // Dry-build episode 0: protocol-name resolution, ℓ bounds,
        // without-replacement oversampling, graph construction, mode
        // compatibility — all the facade's build checks.
        let cache = crate::cache::WarmCache::new();
        self.build_simulation(0, &cache).map(|_| ())
    }

    /// Canonical JSON form (defaults included), the manifest header's
    /// spec material.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("protocol".into(), Json::Str(self.protocol.clone())),
            (
                "n".into(),
                Json::Array(self.n.iter().map(|&v| Json::Int(v as i64)).collect()),
            ),
            (
                "noise".into(),
                Json::Array(self.noise.iter().map(|&v| Json::from_f64(v)).collect()),
            ),
        ];
        if !self.ell.is_empty() {
            members.push((
                "ell".into(),
                Json::Array(self.ell.iter().map(|&e| Json::Int(i64::from(e))).collect()),
            ));
        }
        if !self.switch_period.is_empty() {
            members.push((
                "switch_period".into(),
                Json::Array(
                    self.switch_period
                        .iter()
                        .map(|&p| Json::Int(p as i64))
                        .collect(),
                ),
            ));
            members.push(("switches".into(), Json::Int(self.switches as i64)));
        }
        if !self.corruption.is_empty() {
            members.push((
                "corruption".into(),
                Json::Array(self.corruption.iter().map(|&f| Json::from_f64(f)).collect()),
            ));
        }
        members.push((
            "sample_constant".into(),
            Json::from_f64(self.sample_constant),
        ));
        members.push((
            "seeds".into(),
            Json::object([
                ("base", Json::Int(self.seeds.base as i64)),
                ("count", Json::Int(self.seeds.count as i64)),
            ]),
        ));
        members.push((
            "fidelity".into(),
            Json::Str(
                match self.fidelity {
                    Fidelity::Binomial => "binomial",
                    Fidelity::WithoutReplacement => "without-replacement",
                    Fidelity::Agent => "agent",
                    Fidelity::Aggregate => "aggregate",
                }
                .into(),
            ),
        ));
        let mode_name = match self.mode {
            ExecutionMode::Auto => "auto",
            ExecutionMode::Fused => "fused",
            ExecutionMode::FusedParallel { .. } => "fused-parallel",
        };
        members.push(("mode".into(), Json::Str(mode_name.into())));
        if let ExecutionMode::FusedParallel { threads } = self.mode {
            members.push(("threads".into(), Json::Int(i64::from(threads))));
        }
        members.push(("init".into(), Json::Str(self.init.label())));
        if let Some(r) = self.max_rounds {
            members.push(("max_rounds".into(), Json::Int(r as i64)));
        }
        members.push((
            "stability_window".into(),
            Json::Int(self.stability_window as i64),
        ));
        if let Some(t) = &self.topology {
            members.push((
                "topology".into(),
                Json::object([
                    ("graph", Json::Str(t.graph.clone())),
                    ("degree", Json::Int(i64::from(t.degree))),
                    ("beta", Json::from_f64(t.beta)),
                    ("seed", Json::Int(t.seed as i64)),
                ]),
            ));
        }
        members.push((
            "record_trajectory".into(),
            Json::Bool(self.record_trajectory),
        ));
        Json::Object(members)
    }

    /// FNV-1a hash of the canonical spec bytes, hex-encoded — the identity
    /// a manifest is keyed by.
    pub fn hash(&self) -> String {
        let text = self.to_json().to_string();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in text.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// Number of grid cells
    /// (`n × noise × ℓ × switch_period × corruption` points).
    pub fn cell_count(&self) -> u64 {
        self.n.len() as u64
            * self.noise.len() as u64
            * self.ell_axis_len()
            * self.switch_axis_len()
            * self.corruption_axis_len()
    }

    /// Total episodes (cells × seeds).
    pub fn episode_count(&self) -> u64 {
        self.cell_count() * self.seeds.count
    }

    fn ell_axis_len(&self) -> u64 {
        self.ell.len().max(1) as u64
    }

    fn switch_axis_len(&self) -> u64 {
        self.switch_period.len().max(1) as u64
    }

    fn corruption_axis_len(&self) -> u64 {
        self.corruption.len().max(1) as u64
    }

    /// The parameters of cell `cell_index` (row-major
    /// `n × noise × ℓ × switch_period × corruption`; absent axes
    /// contribute a single implicit point, so pre-gauntlet specs keep
    /// their cell numbering).
    ///
    /// # Panics
    ///
    /// Panics when `cell_index ≥ cell_count()`.
    pub fn cell(&self, cell_index: u64) -> CellParams {
        assert!(cell_index < self.cell_count(), "cell index out of range");
        let corrs = self.corruption_axis_len();
        let switches = self.switch_axis_len();
        let ells = self.ell_axis_len();
        let per_ell = switches * corrs;
        let per_noise = ells * per_ell;
        let per_n = self.noise.len() as u64 * per_noise;
        let n = self.n[(cell_index / per_n) as usize];
        let noise = self.noise[((cell_index / per_noise) % self.noise.len() as u64) as usize];
        let ell = if self.ell.is_empty() {
            None
        } else {
            Some(self.ell[((cell_index / per_ell) % ells) as usize])
        };
        let switch_period = if self.switch_period.is_empty() {
            None
        } else {
            Some(self.switch_period[((cell_index / corrs) % switches) as usize])
        };
        let corruption = if self.corruption.is_empty() {
            None
        } else {
            Some(self.corruption[(cell_index % corrs) as usize])
        };
        CellParams {
            n,
            noise,
            ell,
            switch_period,
            corruption,
        }
    }

    /// Decomposes a flat episode index into `(cell, seed)`.
    ///
    /// # Panics
    ///
    /// Panics when `episode ≥ episode_count()`.
    pub fn episode(&self, episode: u64) -> (CellParams, u64) {
        assert!(episode < self.episode_count(), "episode index out of range");
        let cell = self.cell(episode / self.seeds.count);
        let seed = self.seeds.base + episode % self.seeds.count;
        (cell, seed)
    }

    /// The shard count of the determinism key `(seed, shard count)`: the
    /// sweep's trajectories are reproducible because this is pinned by the
    /// spec, never by the host.
    pub fn shards(&self) -> u32 {
        match self.mode {
            ExecutionMode::FusedParallel { threads } => threads,
            _ => 1,
        }
    }

    /// The `ℓ` a cell resolves to.
    pub fn cell_ell(&self, cell: &CellParams) -> u32 {
        match cell.ell {
            Some(e) => e,
            None => ell_for_population(cell.n, self.sample_constant),
        }
    }

    /// Assembles the ready-to-run simulation for one episode, drawing
    /// protocol instances and graphs from `cache`.
    ///
    /// # Errors
    ///
    /// [`SweepError::Sim`] when the facade rejects the configuration,
    /// [`SweepError::Spec`] for unknown graph names.
    pub fn build_simulation(
        &self,
        episode: u64,
        cache: &crate::cache::WarmCache,
    ) -> Result<Simulation, SweepError> {
        let (cell, seed) = self.episode(episode);
        let ell = self.cell_ell(&cell);
        let mut b: SimulationBuilder = Simulation::builder()
            .population(cell.n)
            .seed(seed)
            .init(self.init)
            .stability_window(self.stability_window)
            .execution_mode(self.mode)
            .max_rounds(
                self.max_rounds
                    .unwrap_or_else(|| default_max_rounds(cell.n)),
            )
            .record_trajectory(self.record_trajectory)
            .protocol_erased(cache.protocol(&self.protocol, cell.n, ell)?);
        b = match &self.topology {
            Some(t) => b.topology(cache.shared_graph(t, cell.n as u32)?),
            None => b.fidelity(self.fidelity),
        };
        if cell.switch_period.is_some() {
            b = b.fault_schedule(self.cell_schedule(&cell)?);
        } else if cell.noise > 0.0 {
            let plan =
                FaultPlan::with_noise(cell.noise).map_err(|e| SweepError::Sim(e.to_string()))?;
            b = b.fault(plan);
        }
        b.build().map_err(|e| SweepError::Sim(e.to_string()))
    }

    /// The fault schedule a gauntlet cell runs: `switches` trend switches
    /// at rounds `P, 2P, …` alternating the correct opinion away from the
    /// spec's initial target, plus — when the cell carries a corruption
    /// fraction — one state-corruption event at each switch window's
    /// midpoint. The cell's noise level rides as the schedule's base plan.
    ///
    /// # Errors
    ///
    /// [`SweepError::Sim`] when the knobs fail fault validation (cannot
    /// happen for a spec that passed [`SweepSpec::validate`]).
    pub fn cell_schedule(&self, cell: &CellParams) -> Result<FaultSchedule, SweepError> {
        let sim_err = |e: fet_sim::SimError| SweepError::Sim(e.to_string());
        let base = if cell.noise > 0.0 {
            FaultPlan::with_noise(cell.noise).map_err(sim_err)?
        } else {
            FaultPlan::none()
        };
        let Some(period) = cell.switch_period else {
            return FaultSchedule::new(base, Vec::new()).map_err(sim_err);
        };
        let mut events = Vec::new();
        for k in 1..=self.switches {
            let round = k * period;
            // The initial correct opinion is One (ProblemSpec default the
            // sweep builder uses), so odd switches target Zero.
            let correct = if k % 2 == 1 {
                Opinion::Zero
            } else {
                Opinion::One
            };
            events.push(FaultEvent::TrendSwitch { round, correct });
            if let Some(fraction) = cell.corruption {
                events.push(FaultEvent::StateCorruption {
                    round: round + period / 2,
                    fraction,
                });
            }
        }
        FaultSchedule::new(base, events).map_err(sim_err)
    }

    /// Runs one episode to completion.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepSpec::build_simulation`] failures.
    pub fn run_episode(
        &self,
        episode: u64,
        cache: &crate::cache::WarmCache,
    ) -> Result<EpisodeRecord, SweepError> {
        let (cell, seed) = self.episode(episode);
        let mut sim = self.build_simulation(episode, cache)?;
        let report = sim.run();
        Ok(EpisodeRecord {
            episode,
            seed,
            shards: self.shards(),
            cell,
            report: report.report,
            trajectory: report.trajectory,
            recovery: report.recovery,
        })
    }
}

/// Seed material shared by sweep components that need auxiliary draws
/// (e.g. graph construction) without touching episode streams.
pub fn graph_seed_tree(topology_seed: u64) -> SeedTree {
    SeedTree::new(topology_seed).child("sweep-graph")
}

/// One completed episode: the manifest's unit record, keyed by the
/// deterministic `(seed, shard count, cell)` tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRecord {
    /// Flat episode index in the spec's enumeration.
    pub episode: u64,
    /// Root seed the episode ran with.
    pub seed: u64,
    /// Shard count of the determinism key.
    pub shards: u32,
    /// Grid-cell parameters.
    pub cell: CellParams,
    /// Convergence outcome.
    pub report: ConvergenceReport,
    /// Full `x_t` trajectory when the spec requested recording.
    pub trajectory: Option<Vec<f64>>,
    /// Per-event recovery records (empty unless the cell ran a fault
    /// schedule with events).
    pub recovery: Vec<RecoveryRecord>,
}

impl EpisodeRecord {
    /// Canonical JSON-line form.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = vec![
            ("episode".into(), Json::Int(self.episode as i64)),
            ("seed".into(), Json::Int(self.seed as i64)),
            ("shards".into(), Json::Int(i64::from(self.shards))),
            ("cell".into(), self.cell.to_json()),
            (
                "report".into(),
                Json::object([
                    (
                        "converged_at",
                        match self.report.converged_at {
                            Some(t) => Json::Int(t as i64),
                            None => Json::Null,
                        },
                    ),
                    ("rounds_run", Json::Int(self.report.rounds_run as i64)),
                    (
                        "final_fraction_correct",
                        Json::from_f64(self.report.final_fraction_correct),
                    ),
                ]),
            ),
        ];
        if let Some(traj) = &self.trajectory {
            members.push((
                "trajectory".into(),
                Json::Array(traj.iter().map(|&x| Json::from_f64(x)).collect()),
            ));
        }
        if !self.recovery.is_empty() {
            members.push((
                "recovery".into(),
                Json::Array(self.recovery.iter().map(recovery_to_json).collect()),
            ));
        }
        Json::Object(members)
    }

    /// Parses a manifest line back into a record.
    ///
    /// # Errors
    ///
    /// [`SweepError::Spec`] when required members are missing or mistyped.
    pub fn from_json(v: &Json) -> Result<EpisodeRecord, SweepError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| SweepError::spec(format!("episode record missing `{name}`")))
        };
        let num = |name: &str| {
            field(name)?.as_u64().ok_or_else(|| {
                SweepError::spec(format!("episode record `{name}` must be a number"))
            })
        };
        let cell_json = field("cell")?;
        let report_json = field("report")?;
        Ok(EpisodeRecord {
            episode: num("episode")?,
            seed: num("seed")?,
            shards: num("shards")? as u32,
            cell: CellParams {
                n: cell_json
                    .get("n")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| SweepError::spec("cell missing numeric `n`"))?,
                noise: cell_json.get("noise").and_then(Json::as_f64).unwrap_or(0.0),
                ell: cell_json
                    .get("ell")
                    .and_then(Json::as_u64)
                    .map(|e| e as u32),
                switch_period: cell_json.get("switch_period").and_then(Json::as_u64),
                corruption: cell_json.get("corruption").and_then(Json::as_f64),
            },
            report: ConvergenceReport {
                converged_at: report_json.get("converged_at").and_then(Json::as_u64),
                rounds_run: report_json
                    .get("rounds_run")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| SweepError::spec("report missing `rounds_run`"))?,
                final_fraction_correct: report_json
                    .get("final_fraction_correct")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| SweepError::spec("report missing `final_fraction_correct`"))?,
            },
            trajectory: v
                .get("trajectory")
                .and_then(Json::as_array)
                .map(|items| items.iter().filter_map(Json::as_f64).collect()),
            recovery: match v.get("recovery").and_then(Json::as_array) {
                None => Vec::new(),
                Some(items) => items
                    .iter()
                    .map(recovery_from_json)
                    .collect::<Result<Vec<RecoveryRecord>, _>>()?,
            },
        })
    }
}

/// The canonical JSON form of one recovery record (manifest material —
/// byte-stable under round-tripping).
pub fn recovery_to_json(record: &RecoveryRecord) -> Json {
    let opt = |r: Option<u64>| match r {
        Some(t) => Json::Int(t as i64),
        None => Json::Null,
    };
    Json::object([
        ("event_round", Json::Int(record.event_round as i64)),
        ("kind", Json::Str(record.kind.to_string())),
        ("adapted_at", opt(record.adapted_at)),
        ("restabilized_at", opt(record.restabilized_at)),
    ])
}

/// Parses one recovery record from its canonical JSON form.
///
/// # Errors
///
/// [`SweepError::Spec`] when members are missing, mistyped, or name an
/// unknown event kind.
pub fn recovery_from_json(v: &Json) -> Result<RecoveryRecord, SweepError> {
    let kind_label = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| SweepError::spec("recovery record missing string `kind`"))?;
    let kind = FaultEventKind::parse(kind_label)
        .ok_or_else(|| SweepError::spec(format!("unknown recovery event kind `{kind_label}`")))?;
    Ok(RecoveryRecord {
        event_round: v
            .get("event_round")
            .and_then(Json::as_u64)
            .ok_or_else(|| SweepError::spec("recovery record missing numeric `event_round`"))?,
        kind,
        adapted_at: v.get("adapted_at").and_then(Json::as_u64),
        restabilized_at: v.get("restabilized_at").and_then(Json::as_u64),
    })
}

fn u64_axis(doc: &Json, name: &str) -> Result<Option<Vec<u64>>, SweepError> {
    match doc.get(name) {
        None => Ok(None),
        Some(Json::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| SweepError::spec(format!("`{name}` entries must be numbers")))
            })
            .collect::<Result<Vec<u64>, _>>()
            .map(Some),
        // A bare scalar is accepted as a one-point axis.
        Some(v) => match v.as_u64() {
            Some(x) => Ok(Some(vec![x])),
            None => Err(SweepError::spec(format!(
                "`{name}` must be an array of numbers (or one number)"
            ))),
        },
    }
}

fn f64_axis(doc: &Json, name: &str) -> Result<Option<Vec<f64>>, SweepError> {
    match doc.get(name) {
        None => Ok(None),
        Some(Json::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| SweepError::spec(format!("`{name}` entries must be numbers")))
            })
            .collect::<Result<Vec<f64>, _>>()
            .map(Some),
        Some(v) => match v.as_f64() {
            Some(x) => Ok(Some(vec![x])),
            None => Err(SweepError::spec(format!(
                "`{name}` must be an array of numbers (or one number)"
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> SweepSpec {
        SweepSpec::parse(
            r#"{"n": [100, 200], "noise": [0, 0.05], "seeds": {"base": 7, "count": 3},
                "max_rounds": 2000}"#,
        )
        .unwrap()
    }

    #[test]
    fn grid_enumeration_is_row_major() {
        let spec = small_spec();
        assert_eq!(spec.cell_count(), 4);
        assert_eq!(spec.episode_count(), 12);
        assert_eq!(
            spec.cell(0),
            CellParams {
                n: 100,
                noise: 0.0,
                ell: None,
                switch_period: None,
                corruption: None,
            }
        );
        assert_eq!(
            spec.cell(1),
            CellParams {
                n: 100,
                noise: 0.05,
                ell: None,
                switch_period: None,
                corruption: None,
            }
        );
        assert_eq!(
            spec.cell(2),
            CellParams {
                n: 200,
                noise: 0.0,
                ell: None,
                switch_period: None,
                corruption: None,
            }
        );
        let (cell, seed) = spec.episode(7);
        assert_eq!(cell, spec.cell(2));
        assert_eq!(seed, 8, "episode 7 = cell 2, seed offset 1, base 7");
    }

    #[test]
    fn ell_axis_multiplies_cells() {
        let spec = SweepSpec::parse(r#"{"n": [100], "ell": [10, 20, 30], "seeds": {"count": 2}}"#)
            .unwrap();
        assert_eq!(spec.cell_count(), 3);
        assert_eq!(spec.cell(1).ell, Some(20));
    }

    #[test]
    fn defaults_are_deterministic_and_canonical() {
        let spec = small_spec();
        assert_eq!(spec.mode, ExecutionMode::Fused, "host-independent default");
        let canon = spec.to_json().to_string();
        let reparsed = SweepSpec::parse(&canon).unwrap();
        assert_eq!(reparsed, spec, "canonical form round-trips");
        assert_eq!(reparsed.hash(), spec.hash());
    }

    #[test]
    fn unknown_fields_and_bad_values_are_rejected() {
        for bad in [
            r#"{"n": [100], "frobnicate": 1}"#,
            r#"{"noise": [0.1]}"#,
            r#"{"n": []}"#,
            r#"{"n": [100], "seeds": {"count": 0}}"#,
            r#"{"n": [100], "seeds": {"base": "7", "count": 2}}"#,
            r#"{"n": [100], "seeds": {"base": -1, "count": 2}}"#,
            r#"{"n": [100], "seeds": {"base": 0.5, "count": 2}}"#,
            r#"{"n": [100], "noise": [1.5]}"#,
            r#"{"n": [100], "mode": "warp"}"#,
            r#"{"n": [100], "threads": 4}"#,
            r#"{"n": [100], "protocol": "nonsense"}"#,
            r#"{"n": [100], "fidelity": "aggregate"}"#,
            r#"{"n": [20], "ell": [32], "fidelity": "without-replacement"}"#,
        ] {
            assert!(SweepSpec::parse(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn legacy_batched_mode_is_the_fused_mode() {
        let agent = SweepSpec::parse(r#"{"n": [100], "fidelity": "agent"}"#).unwrap();
        let legacy =
            SweepSpec::parse(r#"{"n": [100], "fidelity": "agent", "mode": "batched"}"#).unwrap();
        let fused =
            SweepSpec::parse(r#"{"n": [100], "fidelity": "agent", "mode": "fused"}"#).unwrap();
        assert_eq!(legacy.mode, ExecutionMode::Fused);
        assert_eq!(legacy, fused);
        assert_eq!(legacy.hash(), fused.hash());
        assert_eq!(agent.hash(), fused.hash());
        assert!(legacy.to_json().to_string().contains(r#""mode":"fused""#));
    }

    #[test]
    fn episode_record_round_trips() {
        let record = EpisodeRecord {
            episode: 11,
            seed: 18,
            shards: 2,
            cell: CellParams {
                n: 100,
                noise: 0.05,
                ell: Some(20),
                switch_period: Some(64),
                corruption: Some(0.25),
            },
            report: ConvergenceReport {
                converged_at: Some(37),
                rounds_run: 40,
                final_fraction_correct: 1.0,
            },
            trajectory: Some(vec![0.0, 0.25, 1.0]),
            recovery: vec![RecoveryRecord {
                event_round: 64,
                kind: FaultEventKind::TrendSwitch,
                adapted_at: Some(70),
                restabilized_at: None,
            }],
        };
        let line = record.to_json().to_string();
        let back = EpisodeRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        assert_eq!(back.to_json().to_string(), line, "byte-stable round trip");
    }

    #[test]
    fn run_episode_matches_the_facade_directly() {
        let spec = SweepSpec::single_cell(150, 5, 2);
        let cache = crate::cache::WarmCache::new();
        let record = spec.run_episode(1, &cache).unwrap();
        assert_eq!(record.seed, 6);
        let mut direct = Simulation::builder()
            .population(150)
            .seed(6)
            .execution_mode(ExecutionMode::Fused)
            .build()
            .unwrap();
        let direct_report = direct.run();
        assert_eq!(
            record.report, direct_report.report,
            "same deterministic stream"
        );
    }

    #[test]
    fn graph_sweep_without_fidelity_is_the_agent_sweep() {
        let omitted =
            SweepSpec::parse(r#"{"n": [1000], "topology": {"graph": "regular", "degree": 8}}"#)
                .unwrap();
        let explicit = SweepSpec::parse(
            r#"{"n": [1000], "topology": {"graph": "regular", "degree": 8}, "fidelity": "agent"}"#,
        )
        .unwrap();
        assert_eq!(omitted.fidelity, Fidelity::Agent);
        assert_eq!(
            omitted.to_json().to_string(),
            explicit.to_json().to_string()
        );
        assert_eq!(omitted.hash(), explicit.hash());
        // The complete graph keeps its binomial default.
        let flat = SweepSpec::parse(r#"{"n": [1000]}"#).unwrap();
        assert_eq!(flat.fidelity, Fidelity::Binomial);
    }

    #[test]
    fn hash_distinguishes_specs() {
        let a = SweepSpec::single_cell(100, 0, 4);
        let mut b = a.clone();
        b.seeds.count = 5;
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn robustness_axes_multiply_cells_row_major() {
        let spec = SweepSpec::parse(
            r#"{"n": [100], "noise": [0, 0.02], "switch_period": [50, 100],
                "corruption": [0.1, 0.3], "switches": 2, "seeds": {"count": 2},
                "max_rounds": 1000}"#,
        )
        .unwrap();
        assert_eq!(spec.cell_count(), 8, "1 n × 2 noise × 2 periods × 2 corr");
        assert_eq!(spec.episode_count(), 16);
        // Corruption is the fastest-varying axis, then switch period.
        assert_eq!(spec.cell(0).switch_period, Some(50));
        assert_eq!(spec.cell(0).corruption, Some(0.1));
        assert_eq!(spec.cell(1).corruption, Some(0.3));
        assert_eq!(spec.cell(2).switch_period, Some(100));
        assert_eq!(spec.cell(4).noise, 0.02);
        assert_eq!(spec.cell(4).switch_period, Some(50));
    }

    #[test]
    fn robustness_axis_rejections_name_the_problem() {
        for (bad, needle) in [
            // Corruption without a switch axis has no rounds to fire on.
            (r#"{"n": [100], "corruption": [0.2]}"#, "switch_period"),
            (r#"{"n": [100], "switch_period": [0]}"#, "at least 1 round"),
            (
                r#"{"n": [100], "switch_period": [50], "corruption": [1.5]}"#,
                "not a probability",
            ),
            (
                r#"{"n": [100], "switch_period": [50], "switches": 0}"#,
                "switches",
            ),
            // Last event (2 switches × 500 + midpoint 250) overruns the budget.
            (
                r#"{"n": [100], "switch_period": [500], "corruption": [0.1],
                    "switches": 2, "max_rounds": 1000}"#,
                "budget",
            ),
        ] {
            let err = SweepSpec::parse(bad).unwrap_err().to_string();
            assert!(err.contains(needle), "`{bad}` → `{err}`");
        }
    }

    #[test]
    fn cell_schedule_alternates_targets_and_places_midpoint_corruption() {
        let spec = SweepSpec::parse(
            r#"{"n": [100], "switch_period": [100], "corruption": [0.2],
                "switches": 3, "seeds": {"count": 1}, "max_rounds": 1000}"#,
        )
        .unwrap();
        let schedule = spec.cell_schedule(&spec.cell(0)).unwrap();
        let events = schedule.events();
        assert_eq!(events.len(), 6, "3 switches + 3 corruption midpoints");
        let mut switch_rounds = Vec::new();
        let mut corruption_rounds = Vec::new();
        for event in events {
            match event {
                FaultEvent::TrendSwitch { round, correct } => {
                    // Odd switches retarget to Zero, even back to One.
                    let expected = if (round / 100) % 2 == 1 {
                        Opinion::Zero
                    } else {
                        Opinion::One
                    };
                    assert_eq!(*correct, expected);
                    switch_rounds.push(*round);
                }
                FaultEvent::StateCorruption { round, fraction } => {
                    assert_eq!(*fraction, 0.2);
                    corruption_rounds.push(*round);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(switch_rounds, [100, 200, 300]);
        assert_eq!(corruption_rounds, [150, 250, 350]);
    }

    #[test]
    fn pre_gauntlet_specs_keep_their_canonical_bytes() {
        // A spec without robustness axes must not mention them in its
        // canonical form — existing manifest hashes stay valid.
        let spec = small_spec();
        let canon = spec.to_json().to_string();
        for key in ["switch_period", "corruption", "switches"] {
            assert!(!canon.contains(key), "`{key}` leaked into `{canon}`");
        }
    }

    #[test]
    fn gauntlet_episode_records_carry_recovery_and_round_trip() {
        let spec = SweepSpec::parse(
            r#"{"n": [120], "switch_period": [300], "switches": 2,
                "seeds": {"count": 1}, "max_rounds": 4000, "stability_window": 3}"#,
        )
        .unwrap();
        let cache = crate::cache::WarmCache::new();
        let record = spec.run_episode(0, &cache).unwrap();
        let switches: Vec<_> = record
            .recovery
            .iter()
            .filter(|r| r.kind == FaultEventKind::TrendSwitch)
            .collect();
        assert_eq!(switches.len(), 2);
        assert!(
            switches.iter().all(|r| r.adapted_at.is_some()),
            "noise-free switches re-adapt: {switches:?}"
        );
        let line = record.to_json().to_string();
        let back = EpisodeRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record, "recovery records survive the manifest format");
    }
}
