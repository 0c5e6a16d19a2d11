//! Object-safe protocol erasure: run any [`Protocol`] behind one type.
//!
//! [`Protocol`] has an associated `State` type, so `dyn Protocol` does not
//! exist — yet runtime protocol selection (the CLI's `--protocol` flag, the
//! registry in `fet-protocols`, the `Simulation` facade in `fet-sim`) needs
//! exactly that. This module provides the bridge:
//!
//! * [`DynProtocol`] — an object-safe view of a [`Protocol`]'s
//!   configuration (name, sample size, capability flags) plus the
//!   factories that build its population containers. Every `Protocol`
//!   implements it through a blanket impl.
//! * [`ErasedProtocol`] — a cheaply clonable handle (`Arc<dyn
//!   DynProtocol>`) with inherent accessors for the same configuration.
//!
//! Erasure happens at the granularity of the **population**, not the
//! agent: [`ErasedProtocol::population`] hands out a
//! [`DynPopulation`] holding one contiguous `Vec` of the concrete states
//! (or packed bit planes, [`ErasedProtocol::bit_population`]), so a
//! runtime-selected protocol pays one virtual dispatch per round into the
//! typed kernel and nothing per agent. The engine drives
//! runtime-selected protocols through such a container under either
//! scheduler.
//!
//! [`DynPopulation`]: crate::population::DynPopulation

use crate::bitplane::BitPopulation;
use crate::memory::MemoryFootprint;
use crate::population::{DynPopulation, TypedPopulation};
use crate::protocol::{Protocol, StatePlanes};
use std::fmt;
use std::sync::Arc;

/// Object-safe view of a [`Protocol`]'s configuration and population
/// factories.
///
/// Obtain one by coercion from any protocol value (`&p`, `Box::new(p)`,
/// `Arc::new(p)`); the blanket impl covers every [`Protocol`]. Use
/// [`ErasedProtocol`] to hand it to engines.
pub trait DynProtocol: fmt::Debug + Send + Sync {
    /// See [`Protocol::name`].
    fn name_erased(&self) -> &str;
    /// See [`Protocol::samples_per_round`].
    fn samples_per_round_erased(&self) -> u32;
    /// See [`Protocol::is_passive`].
    fn is_passive_erased(&self) -> bool;
    /// See [`Protocol::has_fused_kernel`].
    fn has_fused_kernel_erased(&self) -> bool;
    /// See [`Protocol::aggregate_ell`].
    fn aggregate_ell_erased(&self) -> Option<u32>;
    /// See [`Protocol::memory_footprint`].
    fn memory_footprint_erased(&self) -> MemoryFootprint;
    /// Creates an empty contiguous population container for this protocol
    /// (see the [module docs](self)). The container owns a clone of the
    /// protocol configuration, so the handle and the population can live
    /// independently.
    fn fresh_population_erased(&self) -> Box<dyn DynPopulation>;
    /// See [`Protocol::state_planes`].
    fn state_planes_erased(&self) -> StatePlanes;
    /// Creates an empty **bit-plane** population container
    /// ([`BitPopulation`]) for this
    /// protocol, or `None` when the protocol does not pack
    /// ([`Protocol::state_planes`] is [`StatePlanes::Unpacked`], or the
    /// protocol is not passive).
    fn fresh_bit_population_erased(&self) -> Option<Box<dyn DynPopulation>>;
}

impl<P> DynProtocol for P
where
    P: Protocol + Clone + fmt::Debug + Send + Sync + 'static,
    P::State: 'static,
{
    fn name_erased(&self) -> &str {
        Protocol::name(self)
    }

    fn samples_per_round_erased(&self) -> u32 {
        Protocol::samples_per_round(self)
    }

    fn is_passive_erased(&self) -> bool {
        Protocol::is_passive(self)
    }

    fn has_fused_kernel_erased(&self) -> bool {
        Protocol::has_fused_kernel(self)
    }

    fn aggregate_ell_erased(&self) -> Option<u32> {
        Protocol::aggregate_ell(self)
    }

    fn memory_footprint_erased(&self) -> MemoryFootprint {
        Protocol::memory_footprint(self)
    }

    fn fresh_population_erased(&self) -> Box<dyn DynPopulation> {
        Box::new(TypedPopulation::new(self.clone()))
    }

    fn state_planes_erased(&self) -> StatePlanes {
        Protocol::state_planes(self)
    }

    fn fresh_bit_population_erased(&self) -> Option<Box<dyn DynPopulation>> {
        if Protocol::state_planes(self) != StatePlanes::Unpacked && Protocol::is_passive(self) {
            Some(Box::new(BitPopulation::new(self.clone())))
        } else {
            None
        }
    }
}

/// A runtime-selected protocol: a factory handle for its population
/// containers, with inherent accessors for its configuration.
///
/// # Example
///
/// ```
/// use fet_core::erased::ErasedProtocol;
/// use fet_core::fet::FetProtocol;
///
/// let erased = ErasedProtocol::new(FetProtocol::new(16)?);
/// assert_eq!(erased.name(), "fet");
/// assert_eq!(erased.samples_per_round(), 32);
/// assert_eq!(erased.aggregate_ell(), Some(16));
/// # Ok::<(), fet_core::CoreError>(())
/// ```
#[derive(Clone)]
pub struct ErasedProtocol {
    inner: Arc<dyn DynProtocol>,
}

impl fmt::Debug for ErasedProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ErasedProtocol").field(&self.inner).finish()
    }
}

impl ErasedProtocol {
    /// Erases a typed protocol.
    pub fn new<P>(protocol: P) -> Self
    where
        P: Protocol + Clone + fmt::Debug + Send + Sync + 'static,
        P::State: 'static,
    {
        ErasedProtocol {
            inner: Arc::new(protocol),
        }
    }

    /// See [`Protocol::name`].
    pub fn name(&self) -> &str {
        self.inner.name_erased()
    }

    /// See [`Protocol::samples_per_round`].
    pub fn samples_per_round(&self) -> u32 {
        self.inner.samples_per_round_erased()
    }

    /// See [`Protocol::is_passive`].
    pub fn is_passive(&self) -> bool {
        self.inner.is_passive_erased()
    }

    /// See [`Protocol::has_fused_kernel`].
    pub fn has_fused_kernel(&self) -> bool {
        self.inner.has_fused_kernel_erased()
    }

    /// See [`Protocol::aggregate_ell`].
    pub fn aggregate_ell(&self) -> Option<u32> {
        self.inner.aggregate_ell_erased()
    }

    /// See [`Protocol::memory_footprint`].
    pub fn memory_footprint(&self) -> MemoryFootprint {
        self.inner.memory_footprint_erased()
    }

    /// Creates an empty contiguous population container for the underlying
    /// typed protocol — the execution path for runtime-selected protocols
    /// (see the [module docs](self)). The container holds a `Vec` of the
    /// original concrete states even though `self` is erased.
    pub fn population(&self) -> Box<dyn DynPopulation> {
        self.inner.fresh_population_erased()
    }

    /// The underlying protocol's packed plane layout
    /// ([`Protocol::state_planes`]): the layout a bit-plane container
    /// would use.
    pub fn packed_planes(&self) -> StatePlanes {
        self.inner.state_planes_erased()
    }

    /// Creates an empty bit-plane population container
    /// ([`BitPopulation`]) for the
    /// underlying typed protocol — 1 bit/agent opinion storage — or
    /// `None` when the protocol does not pack. Engines selecting storage
    /// at runtime call this first and fall back to
    /// [`ErasedProtocol::population`].
    pub fn bit_population(&self) -> Option<Box<dyn DynPopulation>> {
        self.inner.fresh_bit_population_erased()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fet::FetProtocol;
    use crate::simple_trend::SimpleTrendProtocol;

    #[test]
    fn accessors_forward_to_the_typed_protocol() {
        let typed = FetProtocol::new(8).unwrap();
        let erased = ErasedProtocol::new(typed.clone());
        assert_eq!(erased.name(), "fet");
        assert_eq!(erased.samples_per_round(), typed.samples_per_round());
        assert!(erased.is_passive());
        assert_eq!(erased.has_fused_kernel(), typed.has_fused_kernel());
        assert_eq!(erased.aggregate_ell(), Some(8));
        assert_eq!(erased.memory_footprint(), typed.memory_footprint());
        assert_eq!(erased.packed_planes(), typed.state_planes());
        let simple = ErasedProtocol::new(SimpleTrendProtocol::new(6).unwrap());
        assert_eq!(simple.aggregate_ell(), None);
    }

    #[test]
    fn clones_share_the_protocol() {
        let erased = ErasedProtocol::new(FetProtocol::new(4).unwrap());
        let clone = erased.clone();
        assert_eq!(erased.name(), clone.name());
        assert_eq!(erased.samples_per_round(), clone.samples_per_round());
    }
}
