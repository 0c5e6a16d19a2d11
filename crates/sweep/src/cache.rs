//! Warm shared state reused across episodes.
//!
//! Two pieces of episode setup are expensive and identical across every
//! episode of a grid cell: the protocol instance (a [`FetProtocol`] owns
//! an `Arc<SplitTable>` whose construction is `O(ℓ²)` table fills) and
//! the communication graph (`O(n·d)` edges plus RNG-driven wiring). Both
//! are immutable once built and internally `Arc`-backed, so the cache
//! hands out cheap clones and every worker thread shares one copy.
//!
//! Determinism note: caching never changes results. Protocol instances
//! are pure functions of `(name, n, ℓ)` and graphs are pure functions of
//! the topology spec and population — rebuilding from scratch yields the
//! exact same object.
//!
//! [`FetProtocol`]: fet_core::fet::FetProtocol

use crate::error::SweepError;
use crate::spec::TopologySpec;
use fet_core::erased::ErasedProtocol;
use fet_protocols::registry::{ProtocolParams, ProtocolRegistry};
use fet_topology::graph::{Graph, SharedGraph};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Key of a cached graph: the topology spec fields plus the population
/// it was instantiated for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GraphKey {
    graph: String,
    degree: u32,
    /// `beta` bit pattern — `f64` is not `Hash`, and bitwise identity is
    /// the right equivalence for a cache key.
    beta_bits: u64,
    seed: u64,
    n: u32,
}

/// Thread-safe caches of protocol instances and graphs, shared by every
/// worker of a sweep (and across submissions in the daemon).
pub struct WarmCache {
    registry: ProtocolRegistry,
    protocols: Mutex<HashMap<(String, u64, u32), ErasedProtocol>>,
    graphs: Mutex<HashMap<GraphKey, Arc<Graph>>>,
}

impl WarmCache {
    /// An empty cache over the built-in protocol registry.
    pub fn new() -> WarmCache {
        WarmCache {
            registry: ProtocolRegistry::with_builtins(),
            protocols: Mutex::new(HashMap::new()),
            graphs: Mutex::new(HashMap::new()),
        }
    }

    /// The registry the cache builds protocols from (for name listings
    /// in error messages).
    pub fn registry(&self) -> &ProtocolRegistry {
        &self.registry
    }

    /// The protocol instance for `(name, n, ℓ)` — built once, cloned
    /// (refcount bump) thereafter.
    ///
    /// # Errors
    ///
    /// [`SweepError::Spec`] for unknown names or rejected parameters.
    pub fn protocol(&self, name: &str, n: u64, ell: u32) -> Result<ErasedProtocol, SweepError> {
        let key = (name.to_string(), n, ell);
        let mut cache = self.protocols.lock().expect("protocol cache poisoned");
        if let Some(hit) = cache.get(&key) {
            return Ok(hit.clone());
        }
        let built = self
            .registry
            .build(name, &ProtocolParams::with_ell(n, ell))
            .map_err(|e| {
                let names: Vec<&str> = self.registry.names().collect();
                SweepError::spec(format!(
                    "protocol `{name}`: {e} (known: {})",
                    names.join(", ")
                ))
            })?;
        cache.insert(key, built.clone());
        Ok(built)
    }

    /// The communication graph for `spec` at population `n`, wrapped for
    /// use as a [`Neighborhood`](fet_sim::neighborhood::Neighborhood).
    ///
    /// # Errors
    ///
    /// [`SweepError::Spec`] for unknown graph names or invalid builder
    /// parameters.
    pub fn shared_graph(&self, spec: &TopologySpec, n: u32) -> Result<SharedGraph, SweepError> {
        let key = GraphKey {
            graph: spec.graph.clone(),
            degree: spec.degree,
            beta_bits: spec.beta.to_bits(),
            seed: spec.seed,
            n,
        };
        let mut cache = self.graphs.lock().expect("graph cache poisoned");
        if let Some(hit) = cache.get(&key) {
            return Ok(SharedGraph::new(Arc::clone(hit)));
        }
        let graph = Arc::new(spec.build(n)?);
        cache.insert(key, Arc::clone(&graph));
        Ok(SharedGraph::new(graph))
    }

    /// Number of distinct protocol instances currently cached.
    pub fn protocols_cached(&self) -> usize {
        self.protocols
            .lock()
            .expect("protocol cache poisoned")
            .len()
    }

    /// Number of distinct graphs currently cached.
    pub fn graphs_cached(&self) -> usize {
        self.graphs.lock().expect("graph cache poisoned").len()
    }
}

impl Default for WarmCache {
    fn default() -> Self {
        WarmCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_instances_are_cached_and_shared() {
        let cache = WarmCache::new();
        let a = cache.protocol("fet", 100, 12).unwrap();
        let b = cache.protocol("fet", 100, 12).unwrap();
        let _ = (a, b);
        assert_eq!(cache.protocols_cached(), 1, "one instance for one key");
        cache.protocol("fet", 100, 16).unwrap();
        assert_eq!(cache.protocols_cached(), 2, "distinct ℓ is a distinct key");
    }

    #[test]
    fn unknown_protocol_lists_known_names() {
        let cache = WarmCache::new();
        let err = cache.protocol("nonsense", 100, 12).unwrap_err().to_string();
        assert!(err.contains("nonsense") && err.contains("fet"), "{err}");
    }

    #[test]
    fn graphs_are_cached_per_key() {
        let cache = WarmCache::new();
        let spec = TopologySpec {
            graph: "ring".to_string(),
            degree: 4,
            beta: 0.1,
            seed: 3,
        };
        cache.shared_graph(&spec, 64).unwrap();
        cache.shared_graph(&spec, 64).unwrap();
        assert_eq!(cache.graphs_cached(), 1);
        cache.shared_graph(&spec, 128).unwrap();
        assert_eq!(cache.graphs_cached(), 2, "population is part of the key");
    }

    #[test]
    fn unknown_graph_is_a_spec_error() {
        let cache = WarmCache::new();
        let spec = TopologySpec {
            graph: "torus".to_string(),
            degree: 4,
            beta: 0.1,
            seed: 0,
        };
        let err = cache.shared_graph(&spec, 64).unwrap_err().to_string();
        assert!(err.contains("torus"), "{err}");
    }
}
