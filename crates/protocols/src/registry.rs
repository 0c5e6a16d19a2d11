//! The runtime protocol registry: names to boxed protocol factories.
//!
//! Runtime protocol selection — the CLI's `--protocol` flag, sweep
//! harnesses iterating "every registered protocol", downstream crates
//! plugging in their own variants — needs a level of indirection that the
//! typed [`Protocol`](fet_core::protocol::Protocol) trait cannot offer by
//! itself. The registry provides it: each entry maps a stable name (`"fet"`,
//! `"voter"`, `"3-majority"`, …) to a boxed factory producing an
//! [`ErasedProtocol`] from a [`ProtocolParams`], so a protocol chosen from a
//! string flows into any engine or the `Simulation` facade unchanged.
//!
//! Each handle a factory produces is also a **population builder**: it
//! still knows its concrete protocol type, so
//! [`ProtocolRegistry::build_population`] (or
//! [`ErasedProtocol::population`] on the handle) yields a contiguous
//! type-erased state container — a
//! [`DynPopulation`]. That container is how every per-agent engine run
//! holds its agents; no engine steps an `ErasedProtocol` directly.
//!
//! [`ProtocolRegistry::with_builtins`] pre-registers the whole comparison
//! set of this workspace; [`ProtocolRegistry::register`] adds custom
//! entries (last registration wins, enabling overrides).

use crate::majority::MajorityProtocol;
use crate::oracle_clock::OracleClockProtocol;
use crate::rumor::RumorProtocol;
use crate::three_majority::ThreeMajorityProtocol;
use crate::undecided::UndecidedProtocol;
use crate::voter::VoterProtocol;
use fet_core::erased::ErasedProtocol;
use fet_core::error::CoreError;
use fet_core::fet::FetProtocol;
use fet_core::population::DynPopulation;
use fet_core::simple_trend::SimpleTrendProtocol;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// The instance parameters a factory may consult.
///
/// `ell` is the resolved sample-size parameter (the paper's `ℓ = ⌈c·ln n⌉`
/// unless overridden); protocols with intrinsic sample sizes (voter,
/// 3-majority, …) ignore it, clock-assisted ones use `n` for their phase
/// lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtocolParams {
    /// Population size of the instance.
    pub n: u64,
    /// Resolved sample-size parameter `ℓ`.
    pub ell: u32,
}

impl ProtocolParams {
    /// Parameters with the paper's rule `ℓ = ⌈c·ln n⌉` (at least 1).
    pub fn for_population(n: u64, c: f64) -> Self {
        ProtocolParams {
            n,
            ell: fet_core::config::ell_for_population(n, c),
        }
    }

    /// Parameters with an explicit `ℓ`.
    pub fn with_ell(n: u64, ell: u32) -> Self {
        ProtocolParams { n, ell }
    }
}

/// A boxed protocol constructor, stored per registry entry.
pub type ProtocolFactory =
    Box<dyn Fn(&ProtocolParams) -> Result<ErasedProtocol, CoreError> + Send + Sync>;

/// Errors from registry lookup or construction.
#[derive(Debug)]
pub enum RegistryError {
    /// No protocol registered under the requested name.
    UnknownProtocol {
        /// The name that failed to resolve.
        name: String,
        /// Every registered name, for the error message.
        known: Vec<String>,
    },
    /// The factory rejected the parameters.
    Construction {
        /// The protocol whose factory failed.
        name: String,
        /// The underlying validation error.
        source: CoreError,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownProtocol { name, known } => {
                write!(
                    f,
                    "unknown protocol `{name}`; registered: {}",
                    known.join(", ")
                )
            }
            RegistryError::Construction { name, source } => {
                write!(f, "cannot construct protocol `{name}`: {source}")
            }
        }
    }
}

impl Error for RegistryError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RegistryError::Construction { source, .. } => Some(source),
            RegistryError::UnknownProtocol { .. } => None,
        }
    }
}

/// Maps protocol names to boxed factories.
///
/// # Example
///
/// ```
/// use fet_protocols::registry::{ProtocolParams, ProtocolRegistry};
/// use fet_core::protocol::Protocol;
///
/// let registry = ProtocolRegistry::with_builtins();
/// let params = ProtocolParams::for_population(10_000, 4.0);
/// let fet = registry.build("fet", &params)?;
/// assert_eq!(fet.name(), "fet");
/// assert!(registry.names().count() >= 5);
/// # Ok::<(), fet_protocols::registry::RegistryError>(())
/// ```
pub struct ProtocolRegistry {
    entries: BTreeMap<String, ProtocolFactory>,
}

impl fmt::Debug for ProtocolRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProtocolRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for ProtocolRegistry {
    fn default() -> Self {
        ProtocolRegistry::with_builtins()
    }
}

impl ProtocolRegistry {
    /// An empty registry (no builtins).
    pub fn empty() -> Self {
        ProtocolRegistry {
            entries: BTreeMap::new(),
        }
    }

    /// The registry pre-loaded with every protocol this workspace ships:
    ///
    /// | name | protocol |
    /// |---|---|
    /// | `fet` | Protocol 1, *Follow the Emerging Trend* |
    /// | `simple-trend` | the unpartitioned §1.3 variant |
    /// | `voter` | classic voter dynamic |
    /// | `majority` | ℓ-sample majority with tie-keep |
    /// | `3-majority` | the 3-sample majority dynamic |
    /// | `undecided-state` | undecided-state dynamic |
    /// | `rumor` | PULL rumor spreading, clean start |
    /// | `rumor-corrupted` | rumor spreading, adversarial start |
    /// | `oracle-clock` | §1.4 clock-assisted broadcast (oracle baseline) |
    pub fn with_builtins() -> Self {
        let mut r = ProtocolRegistry::empty();
        r.register("fet", |p: &ProtocolParams| {
            Ok(ErasedProtocol::new(FetProtocol::new(p.ell)?))
        });
        r.register("simple-trend", |p: &ProtocolParams| {
            Ok(ErasedProtocol::new(SimpleTrendProtocol::new(p.ell)?))
        });
        r.register("voter", |_: &ProtocolParams| {
            Ok(ErasedProtocol::new(VoterProtocol::new()))
        });
        r.register("majority", |p: &ProtocolParams| {
            Ok(ErasedProtocol::new(MajorityProtocol::new(p.ell)?))
        });
        r.register("3-majority", |_: &ProtocolParams| {
            Ok(ErasedProtocol::new(ThreeMajorityProtocol::new()))
        });
        r.register("undecided-state", |_: &ProtocolParams| {
            Ok(ErasedProtocol::new(UndecidedProtocol::new()))
        });
        r.register("rumor", |_: &ProtocolParams| {
            Ok(ErasedProtocol::new(RumorProtocol::clean()))
        });
        r.register("rumor-corrupted", |_: &ProtocolParams| {
            Ok(ErasedProtocol::new(RumorProtocol::corrupted()))
        });
        r.register("oracle-clock", |p: &ProtocolParams| {
            Ok(ErasedProtocol::new(OracleClockProtocol::for_population(
                p.n,
            )?))
        });
        r
    }

    /// Registers (or overrides) a protocol factory under `name`.
    pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
    where
        F: Fn(&ProtocolParams) -> Result<ErasedProtocol, CoreError> + Send + Sync + 'static,
    {
        self.entries.insert(name.into(), Box::new(factory));
    }

    /// `true` when `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Registered names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Constructs the protocol registered under `name`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownProtocol`] for unregistered names,
    /// [`RegistryError::Construction`] when the factory rejects `params`.
    pub fn build(
        &self,
        name: &str,
        params: &ProtocolParams,
    ) -> Result<ErasedProtocol, RegistryError> {
        let factory = self
            .entries
            .get(name)
            .ok_or_else(|| RegistryError::UnknownProtocol {
                name: name.to_string(),
                known: self.names().map(str::to_string).collect(),
            })?;
        factory(params).map_err(|source| RegistryError::Construction {
            name: name.to_string(),
            source,
        })
    }

    /// Constructs an empty contiguous population container for the
    /// protocol registered under `name` — the zero-copy erased execution
    /// path (engines fill it and then dispatch each round straight into
    /// the typed fused kernel).
    ///
    /// # Errors
    ///
    /// As [`ProtocolRegistry::build`].
    ///
    /// # Example
    ///
    /// ```
    /// use fet_protocols::registry::{ProtocolParams, ProtocolRegistry};
    ///
    /// let registry = ProtocolRegistry::with_builtins();
    /// let params = ProtocolParams::for_population(10_000, 4.0);
    /// let population = registry.build_population("3-majority", &params)?;
    /// assert_eq!(population.protocol_name(), "3-majority");
    /// assert!(population.is_empty());
    /// # Ok::<(), fet_protocols::registry::RegistryError>(())
    /// ```
    pub fn build_population(
        &self,
        name: &str,
        params: &ProtocolParams,
    ) -> Result<Box<dyn DynPopulation>, RegistryError> {
        Ok(self.build(name, params)?.population())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_the_comparison_set() {
        let r = ProtocolRegistry::with_builtins();
        for name in [
            "fet",
            "simple-trend",
            "voter",
            "majority",
            "3-majority",
            "undecided-state",
            "rumor",
            "rumor-corrupted",
            "oracle-clock",
        ] {
            assert!(r.contains(name), "missing builtin `{name}`");
            let p = r
                .build(name, &ProtocolParams::for_population(1_000, 4.0))
                .unwrap();
            assert_eq!(
                p.name(),
                name,
                "registered name must match the protocol's own"
            );
            assert!(p.samples_per_round() >= 1);
        }
        assert_eq!(r.names().count(), 9);
    }

    #[test]
    fn unknown_name_lists_known_ones() {
        let r = ProtocolRegistry::with_builtins();
        let err = r
            .build("frobnicate", &ProtocolParams::with_ell(100, 4))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown protocol `frobnicate`"));
        assert!(msg.contains("fet"));
        assert!(msg.contains("voter"));
    }

    #[test]
    fn construction_errors_surface() {
        let r = ProtocolRegistry::with_builtins();
        let err = r
            .build("fet", &ProtocolParams::with_ell(100, 0))
            .unwrap_err();
        assert!(matches!(err, RegistryError::Construction { .. }), "{err}");
    }

    #[test]
    fn custom_registration_overrides() {
        let mut r = ProtocolRegistry::with_builtins();
        r.register("voter", |p: &ProtocolParams| {
            Ok(ErasedProtocol::new(MajorityProtocol::new(p.ell)?))
        });
        let p = r.build("voter", &ProtocolParams::with_ell(100, 7)).unwrap();
        assert_eq!(p.name(), "majority", "override must win");
    }

    #[test]
    fn population_builders_cover_every_builtin() {
        use fet_core::opinion::Opinion;
        use fet_stats::rng::SeedTree;
        let r = ProtocolRegistry::with_builtins();
        let params = ProtocolParams::for_population(500, 4.0);
        let mut rng = SeedTree::new(3).child("registry-pop").rng();
        for name in r.names().map(str::to_string).collect::<Vec<_>>() {
            let mut pop = r.build_population(&name, &params).unwrap();
            assert_eq!(pop.protocol_name(), name);
            assert!(pop.is_empty(), "factories hand out empty containers");
            pop.push_agent(Opinion::Zero, &mut rng);
            assert_eq!(pop.len(), 1);
            assert_eq!(
                pop.samples_per_round(),
                r.build(&name, &params).unwrap().samples_per_round()
            );
        }
    }

    #[test]
    fn params_follow_the_paper_rule() {
        let p = ProtocolParams::for_population(1_000, 4.0);
        assert_eq!(p.ell, 28, "⌈4·ln 1000⌉ = 28");
        assert_eq!(
            ProtocolParams::for_population(2, 0.1).ell,
            1,
            "clamped to ≥ 1"
        );
    }

    #[test]
    fn only_fet_supports_the_aggregate_fidelity() {
        let r = ProtocolRegistry::with_builtins();
        let params = ProtocolParams::for_population(1_000, 4.0);
        for name in ["voter", "majority", "3-majority", "simple-trend"] {
            assert_eq!(
                r.build(name, &params).unwrap().aggregate_ell(),
                None,
                "{name}"
            );
        }
        assert_eq!(r.build("fet", &params).unwrap().aggregate_ell(), Some(28));
    }
}
