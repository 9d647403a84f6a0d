//! The self-testable component bundle.
//!
//! A self-testable component (paper §2.4) ships its implementation
//! together with its test specification and built-in test interface. The
//! [`SelfTestable`] bundle is that packaging: the t-spec, the factory that
//! creates instances of the implementation, and — when the producer opted
//! into mutation evaluation — the mutation inventory, switch and
//! inheritance map.

use concat_bit::ComponentFactory;
use concat_driver::InheritanceMap;
use concat_mutation::{ClassInventory, ClonableFactory, MutationSwitch};
use concat_tspec::ClassSpec;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A packaged self-testable component.
///
/// Build one with [`SelfTestableBuilder`]; validate the packaging with
/// [`crate::Producer::package`].
#[derive(Clone)]
pub struct SelfTestable {
    spec: ClassSpec,
    factory: Rc<dyn ComponentFactory>,
    inventory: Option<ClassInventory>,
    switch: Option<MutationSwitch>,
    shards: Option<Arc<dyn ClonableFactory>>,
    inheritance: Option<InheritanceMap>,
}

impl fmt::Debug for SelfTestable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SelfTestable")
            .field("class_name", &self.spec.class_name)
            .field("methods", &self.spec.methods.len())
            .field("has_inventory", &self.inventory.is_some())
            .field("has_shards", &self.shards.is_some())
            .field("has_inheritance", &self.inheritance.is_some())
            .finish_non_exhaustive()
    }
}

impl SelfTestable {
    /// The embedded t-spec.
    pub fn spec(&self) -> &ClassSpec {
        &self.spec
    }

    /// The component factory.
    pub fn factory(&self) -> &dyn ComponentFactory {
        self.factory.as_ref()
    }

    /// The mutation inventory, when packaged for quality evaluation.
    pub fn inventory(&self) -> Option<&ClassInventory> {
        self.inventory.as_ref()
    }

    /// The shared mutation switch, when packaged for quality evaluation.
    pub fn switch(&self) -> Option<&MutationSwitch> {
        self.switch.as_ref()
    }

    /// The sharding seam for parallel mutation analysis, when the producer
    /// packaged one. Each analysis worker builds its own factory (and
    /// switch) through it, so mutant executions can run concurrently.
    pub fn shards(&self) -> Option<&dyn ClonableFactory> {
        self.shards.as_deref()
    }

    /// An owned handle to the sharding seam, for consumers that outlive
    /// this bundle — an orchestrated campaign keeps classifying mutants
    /// on fleet workers long after the submitting scope returned.
    pub fn shards_handle(&self) -> Option<Arc<dyn ClonableFactory>> {
        self.shards.clone()
    }

    /// The inheritance map relating this component to its superclass.
    pub fn inheritance(&self) -> Option<&InheritanceMap> {
        self.inheritance.as_ref()
    }

    /// Class name (from the spec).
    pub fn class_name(&self) -> &str {
        &self.spec.class_name
    }
}

/// Builder for [`SelfTestable`] bundles.
pub struct SelfTestableBuilder {
    spec: ClassSpec,
    factory: Rc<dyn ComponentFactory>,
    inventory: Option<ClassInventory>,
    switch: Option<MutationSwitch>,
    shards: Option<Arc<dyn ClonableFactory>>,
    inheritance: Option<InheritanceMap>,
}

impl fmt::Debug for SelfTestableBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SelfTestableBuilder")
            .field("class_name", &self.spec.class_name)
            .finish_non_exhaustive()
    }
}

impl SelfTestableBuilder {
    /// Starts a bundle from a spec and a factory.
    pub fn new(spec: ClassSpec, factory: Rc<dyn ComponentFactory>) -> Self {
        SelfTestableBuilder {
            spec,
            factory,
            inventory: None,
            switch: None,
            shards: None,
            inheritance: None,
        }
    }

    /// Attaches a mutation inventory and its switch (quality evaluation).
    pub fn mutation(mut self, inventory: ClassInventory, switch: MutationSwitch) -> Self {
        self.inventory = Some(inventory);
        self.switch = Some(switch);
        self
    }

    /// Attaches the sharding seam that lets quality evaluation run across
    /// a fleet of worker slots
    /// ([`concat_mutation::run_mutation_analysis_parallel`]).
    /// Optional: without it, evaluation runs sequentially on the bundle's
    /// own factory/switch pair.
    pub fn mutation_shards(mut self, shards: Arc<dyn ClonableFactory>) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Attaches the inheritance map (subclass reuse analysis).
    pub fn inheritance(mut self, map: InheritanceMap) -> Self {
        self.inheritance = Some(map);
        self
    }

    /// Finishes the bundle (no validation; see [`crate::Producer`]).
    pub fn build(self) -> SelfTestable {
        SelfTestable {
            spec: self.spec,
            factory: self.factory,
            inventory: self.inventory,
            switch: self.switch,
            shards: self.shards,
            inheritance: self.inheritance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use concat_bit::{BitControl, TestableComponent};
    use concat_runtime::{unknown_method, TestException, Value};

    struct NullFactory;
    impl ComponentFactory for NullFactory {
        fn class_name(&self) -> &str {
            "C"
        }
        fn construct(
            &self,
            constructor: &str,
            _a: &[Value],
            _ctl: BitControl,
        ) -> Result<Box<dyn TestableComponent>, TestException> {
            Err(unknown_method("C", constructor))
        }
    }

    fn spec() -> ClassSpec {
        concat_tspec::ClassSpecBuilder::new("C")
            .constructor("m1", "C")
            .destructor("m2", "~C")
            .birth_node("n1", ["m1"])
            .death_node("n2", ["m2"])
            .edge("n1", "n2")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_assembles_bundle() {
        let st = SelfTestableBuilder::new(spec(), Rc::new(NullFactory))
            .mutation(ClassInventory::new("C"), MutationSwitch::new())
            .inheritance(InheritanceMap::new())
            .build();
        assert_eq!(st.class_name(), "C");
        assert!(st.inventory().is_some());
        assert!(st.switch().is_some());
        assert!(st.inheritance().is_some());
        assert_eq!(st.factory().class_name(), "C");
        assert_eq!(st.spec().methods.len(), 2);
    }

    #[test]
    fn minimal_bundle_has_no_extras() {
        let st = SelfTestableBuilder::new(spec(), Rc::new(NullFactory)).build();
        assert!(st.inventory().is_none());
        assert!(st.switch().is_none());
        assert!(st.shards().is_none());
        assert!(st.inheritance().is_none());
    }

    #[test]
    fn shards_ride_along_when_attached() {
        struct NullShards;
        impl ClonableFactory for NullShards {
            fn class_name(&self) -> &str {
                "C"
            }
            fn build_factory(&self, _switch: &MutationSwitch) -> Box<dyn ComponentFactory> {
                Box::new(NullFactory)
            }
        }
        let st = SelfTestableBuilder::new(spec(), Rc::new(NullFactory))
            .mutation_shards(Arc::new(NullShards))
            .build();
        let shards = st.shards().expect("shards attached");
        assert_eq!(shards.class_name(), "C");
        assert!(format!("{st:?}").contains("has_shards: true"));
    }

    #[test]
    fn bundles_are_cloneable_and_debuggable() {
        let st = SelfTestableBuilder::new(spec(), Rc::new(NullFactory)).build();
        let clone = st.clone();
        assert_eq!(clone.class_name(), "C");
        let dbg = format!("{st:?}");
        assert!(dbg.contains("SelfTestable"));
        assert!(dbg.contains("\"C\""));
    }
}
