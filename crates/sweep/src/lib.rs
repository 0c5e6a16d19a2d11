//! # fet-sweep — the throughput tier
//!
//! Episode-parallel sweep engine for the Korman–Vacus experiments: a
//! [`SweepSpec`] (parameter grid × seed range) decomposes into
//! independent episode jobs that saturate cores through the workspace's
//! one job dispenser ([`fet_core::pool::run_jobs`]), stream through a
//! merge step into live aggregates and an on-disk checkpoint, and render
//! into convergence tables, histograms, and phase-diagram heatmaps.
//!
//! The paper's workload is *many short runs*, not one long one: phase
//! diagrams over `(n, noise, ℓ)` grids and convergence-time
//! distributions over hundreds of seeds. This crate owns everything
//! between "a grid description" and "the rendered artifacts":
//!
//! * [`spec`] — the grid, its deterministic episode enumeration, and
//!   how one episode becomes a `fet_sim` simulation.
//! * [`cache`] — warm shared state (protocol instances with their split
//!   tables, communication graphs) reused across every episode.
//! * [`manifest`] — the kill/resume checkpoint: an append-only JSONL
//!   journal rewritten canonically on completion, byte-identical
//!   whatever the worker count or interruption history.
//! * [`aggregate`] — order-invariant live aggregates plus the final
//!   deterministic report.
//! * [`runner`] — the batch runner behind `fet sweep`.
//! * [`serve`] — the `fet serve` daemon: sweeps over HTTP/1.1 with
//!   NDJSON streaming and round-robin fairness across clients.
//! * [`json`] — the small canonical JSON implementation behind spec
//!   files, manifests, and the wire protocol.
//!
//! ## Determinism contract
//!
//! Every episode result is a pure function of `(seed, shard count,
//! cell parameters)`. Scheduling — worker count, completion order, client
//! multiplexing, kill/resume cycles — decides only *when* an episode
//! runs. Finalized manifests and rendered reports are therefore
//! byte-identical across all of those axes, which CI checks by
//! diffing `--workers 1` against `--workers 4` manifests.
//!
//! ## Quick start
//!
//! ```
//! use fet_sweep::runner::{run_sweep, SweepOptions};
//! use fet_sweep::spec::SweepSpec;
//!
//! let spec = SweepSpec::parse(
//!     r#"{"n": [100], "seeds": {"count": 4}, "max_rounds": 2000}"#,
//! )?;
//! let outcome = run_sweep(&spec, &SweepOptions { workers: 2, ..Default::default() })?;
//! assert!(outcome.complete);
//! println!("{}", outcome.report.unwrap());
//! # Ok::<(), fet_sweep::error::SweepError>(())
//! ```

pub mod aggregate;
pub mod cache;
pub mod error;
pub mod json;
pub mod manifest;
pub mod runner;
pub mod serve;
pub mod spec;

pub use aggregate::{render_report, SweepAggregates, SweepReport};
pub use cache::WarmCache;
pub use error::SweepError;
pub use json::Json;
pub use manifest::Manifest;
pub use runner::{run_sweep, SweepOptions, SweepOutcome};
pub use serve::SweepServer;
pub use spec::{EpisodeRecord, SweepSpec};
