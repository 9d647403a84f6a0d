//! Campaigns silence the process-wide panic hook while they run, because
//! mutant panics are expected kill signals. Campaigns overlap on other
//! threads and end in any order, so whichever ends last must put back the
//! hook that was there before the first began. This is its own test
//! binary because it replaces the process's panic hook.

use concat_bit::{BitControl, BuiltInTest, ComponentFactory, StateReport, TestableComponent};
use concat_driver::{MethodCall, SuiteStats, TestCase, TestSuite};
use concat_mutation::{run_mutation_analysis, MutationConfig, MutationSwitch};
use concat_runtime::{
    unknown_method, AssertionViolation, Component, InvokeResult, TestException, Value,
};
use std::panic::{catch_unwind, set_hook};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::{spawn, JoinHandle};

struct Cell {
    ctl: BitControl,
}

impl Component for Cell {
    fn class_name(&self) -> &'static str {
        "Cell"
    }
    fn method_names(&self) -> Vec<&'static str> {
        vec!["Get", "~Cell"]
    }
    fn invoke(&mut self, m: &str, _a: &[Value]) -> InvokeResult {
        match m {
            "Get" => Ok(Value::Int(0)),
            "~Cell" => Ok(Value::Null),
            _ => Err(unknown_method(self.class_name(), m)),
        }
    }
}

impl BuiltInTest for Cell {
    fn bit_control(&self) -> &BitControl {
        &self.ctl
    }
    fn invariant_test(&self) -> Result<(), AssertionViolation> {
        Ok(())
    }
    fn reporter(&self) -> StateReport {
        StateReport::new()
    }
}

/// Builds `Cell`s, but holds the golden run's construction until the
/// test releases it: the campaign is then running, its silencer live.
struct GateFactory {
    entered: Sender<()>,
    release: Receiver<()>,
}

impl ComponentFactory for GateFactory {
    fn class_name(&self) -> &str {
        "Cell"
    }
    fn construct(
        &self,
        constructor: &str,
        _args: &[Value],
        ctl: BitControl,
    ) -> Result<Box<dyn TestableComponent>, TestException> {
        if constructor != "Cell" {
            return Err(unknown_method("Cell", constructor));
        }
        self.entered.send(()).expect("the test waits for entry");
        self.release.recv().expect("the test releases the campaign");
        Ok(Box::new(Cell { ctl }))
    }
}

fn suite() -> TestSuite {
    TestSuite {
        class_name: "Cell".into(),
        seed: 0,
        cases: vec![TestCase {
            id: 0,
            transaction_index: 0,
            node_path: vec![],
            constructor: MethodCall::generated("m1", "Cell", vec![]),
            calls: vec![
                MethodCall::generated("m2", "Get", vec![]),
                MethodCall::generated("m3", "~Cell", vec![]),
            ],
        }],
        stats: SuiteStats::default(),
    }
}

/// Starts a campaign on its own thread and returns once its golden run
/// is parked, with the sender that lets it finish.
fn start_campaign() -> (JoinHandle<()>, Sender<()>) {
    let (entered_tx, entered_rx) = channel();
    let (release_tx, release_rx) = channel();
    let handle = spawn(move || {
        let switch = MutationSwitch::new();
        let factory = GateFactory {
            entered: entered_tx,
            release: release_rx,
        };
        run_mutation_analysis(&factory, &switch, &suite(), &[], &MutationConfig::default());
    });
    entered_rx
        .recv()
        .expect("the campaign reaches its golden run");
    (handle, release_tx)
}

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn overlapping_campaigns_restore_the_panic_hook_in_any_end_order() {
    set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    // A starts, B starts, A ends, B ends.
    let (a, release_a) = start_campaign();
    let (b, release_b) = start_campaign();
    release_a.send(()).expect("campaign A waits");
    a.join().expect("campaign A completes");
    release_b.send(()).expect("campaign B waits");
    b.join().expect("campaign B completes");

    let _ = catch_unwind(|| panic!("a panic after both campaigns"));
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        1,
        "the hook installed before the campaigns sees later panics"
    );
}
