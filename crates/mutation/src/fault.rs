//! Fault activation: how one mutant is "compiled in" at runtime.
//!
//! The paper compiled each mutant as a separate class, so an unmutated use
//! site cost nothing. Our substitution activates exactly one [`FaultPlan`]
//! at a time through a shared [`MutationSwitch`]; instrumented method
//! bodies read their non-interface variables through
//! [`MutationSwitch::read_int`] / [`MutationSwitch::read_value`], which
//! apply the active replacement when the (method, site) matches and are
//! identity otherwise. With no plan active the component *is* the original
//! program.
//!
//! A read is built to cost next to nothing when it does not fire: it
//! allocates nothing and, in the steady state, takes no lock. The
//! variables a `Var` replacement may name reach the switch as a lazy
//! [`Scope`] (a closure over copied locals and attributes), evaluated only
//! when such a replacement fires at the armed site, and the armed plan is
//! read from a per-thread copy of the switch's last published snapshot,
//! revalidated by one atomic load.

use crate::operators::ReqConst;
use concat_bit::ComponentFactory;
use concat_runtime::{CancelToken, Value};
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What to substitute at the matched use site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Replacement {
    /// Bitwise-negate the value read (`IndVarBitNeg`).
    BitNeg,
    /// Read another variable (local or attribute) instead
    /// (`IndVarRepGlob` / `IndVarRepLoc` / `IndVarRepExt`).
    Var(String),
    /// Use a required constant (`IndVarRepReq`).
    Const(ReqConst),
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replacement::BitNeg => f.write_str("~(value)"),
            Replacement::Var(v) => write!(f, "use `{v}` instead"),
            Replacement::Const(c) => write!(f, "use constant {c}"),
        }
    }
}

/// One injected fault: method + use site + replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Method the fault lives in.
    pub method: String,
    /// Use-site id within the method.
    pub site: u32,
    /// The substitution applied when the site is reached.
    pub replacement: Replacement,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ site {}: {}",
            self.method, self.site, self.replacement
        )
    }
}

/// The live variables visible at a use site, for `Var` replacements.
///
/// Lookup order is locals first, then globals (attributes), matching the
/// C++ scoping the operators assume. Instrumented components do not build
/// one per read: they hand the switch a closure that builds it (see
/// [`Scope`]), which runs only when a `Var` replacement fires.
#[derive(Debug, Clone, Default)]
pub struct VarEnv {
    entries: Vec<(Cow<'static, str>, Value)>,
}

impl VarEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a variable (later bindings shadow earlier ones on lookup from
    /// the back). Names are usually literals, which bind without
    /// allocating.
    pub fn bind(mut self, name: impl Into<Cow<'static, str>>, value: impl Into<Value>) -> Self {
        self.entries.push((name.into(), value.into()));
        self
    }

    /// Looks a variable up, innermost binding first.
    pub fn lookup(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The variables in scope at an instrumented read, as a `Var` replacement
/// sees them.
///
/// A [`VarEnv`] is a scope, and so is any `Fn() -> VarEnv`: components
/// pass a closure over copies of their locals and attributes, so the
/// environment is only built when a `Var` replacement fires at the armed
/// site, never on the read's identity path.
pub trait Scope {
    /// The value bound to `name`, innermost binding first.
    fn resolve(&self, name: &str) -> Option<Value>;
}

impl Scope for VarEnv {
    fn resolve(&self, name: &str) -> Option<Value> {
        self.lookup(name).cloned()
    }
}

impl<F: Fn() -> VarEnv> Scope for F {
    fn resolve(&self, name: &str) -> Option<Value> {
        self().lookup(name).cloned()
    }
}

/// Coerces a dynamic value into the integer context of a use site.
///
/// `NULL` coerces to 0 (C semantics); booleans to 0/1; floats truncate;
/// anything else (strings, lists, object handles) coerces to 0 — a maximal
/// disturbance in an index/counter context.
pub fn coerce_int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        Value::Bool(b) => i64::from(*b),
        Value::Float(x) => *x as i64,
        Value::Null | Value::Str(_) | Value::List(_) | Value::Obj(_) => 0,
    }
}

/// The per-lease factory seam of the parallel mutation executor.
///
/// A [`MutationSwitch`] holds exactly one armed plan, so concurrent
/// leases cannot share one: each lease needs its own switch and a
/// component factory whose instrumented reads go through *that* switch.
/// A `ClonableFactory` is the prototype that rebinds the component
/// family to a lease-local switch.
///
/// The builder crosses threads (hence `Send + Sync`); the factory it
/// builds never leaves its slot thread, so `build_factory` can return
/// plain single-threaded factories — including ones that are not `Send`.
pub trait ClonableFactory: Send + Sync {
    /// Class name of the components the built factories construct.
    fn class_name(&self) -> &str;

    /// Builds a fresh factory whose components read their instrumented
    /// variables through `switch`.
    fn build_factory(&self, switch: &MutationSwitch) -> Box<dyn ComponentFactory>;
}

/// What a switch publishes on every change: the armed plan and the
/// cancellation token reads poll. Immutable once published.
#[derive(Debug, Clone, Default)]
struct Snapshot {
    plan: Option<FaultPlan>,
    cancel: Option<CancelToken>,
}

impl Snapshot {
    /// Polls the cancellation token (unwinding when it has tripped), then
    /// applies the armed replacement when it targets `(method, site)`.
    #[inline]
    fn read<T>(
        &self,
        method: &str,
        site: u32,
        original: T,
        apply: impl FnOnce(T, &Replacement) -> T,
    ) -> T {
        if let Some(token) = &self.cancel {
            token.checkpoint();
        }
        match &self.plan {
            Some(plan) if plan.site == site && plan.method == method => {
                apply(original, &plan.replacement)
            }
            _ => original,
        }
    }
}

/// Source of snapshot epochs. Epochs are unique across every switch in
/// the process, so a per-thread copy tagged with one can never be taken
/// for the snapshot of another switch — not even one later allocated at
/// the same address.
static EPOCHS: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    EPOCHS.fetch_add(1, Ordering::Relaxed)
}

#[derive(Debug)]
struct Shared {
    /// Epoch of `published`, only stored while its lock is held. Stored
    /// with `Release` after `published` is replaced, loaded with `Acquire`
    /// by reads, so a read that happens after an `arm` returns sees its
    /// epoch and refreshes its copy.
    epoch: AtomicU64,
    /// The current snapshot.
    published: Mutex<Arc<Snapshot>>,
}

thread_local! {
    /// This thread's copy of the last snapshot it read, with its epoch.
    static CACHED: RefCell<Option<(u64, Arc<Snapshot>)>> = const { RefCell::new(None) };
}

/// Shared mutation switch: the engine arms a plan, instrumented components
/// consult it. Cloning shares the switch: a plan armed through one clone
/// is seen by reads through every other, on any thread.
///
/// Every instrumented read is also a cooperative cancellation point: when
/// a [`CancelToken`] is attached ([`MutationSwitch::set_cancel_token`])
/// and trips — the runner's watchdog at a deadline — the next read
/// unwinds via [`CancelToken::checkpoint`] instead of returning, which is
/// what lets an infinite-loop mutant be interrupted and quarantined: any
/// mutant-induced loop re-reads the mutated site each iteration.
///
/// `arm`, `disarm`, `set_cancel_token` and `clear_cancel_token` publish a
/// fresh snapshot under a new epoch. A read loads the epoch once; while it
/// matches the thread's cached copy, the read takes no lock and clones
/// nothing — it polls the token's atomic flag, compares site, then method,
/// against that copy, and applies a hit's replacement by reference. Only
/// the first read of a thread after a publication locks, to copy the new
/// snapshot's `Arc`.
#[derive(Debug, Clone)]
pub struct MutationSwitch {
    shared: Arc<Shared>,
}

impl Default for MutationSwitch {
    fn default() -> Self {
        MutationSwitch {
            shared: Arc::new(Shared {
                epoch: AtomicU64::new(next_epoch()),
                published: Mutex::default(),
            }),
        }
    }
}

impl MutationSwitch {
    /// Creates a switch with no active fault (original program).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Arc<Snapshot>> {
        // Every update swaps in a fully built snapshot; recovering from a
        // poisoned lock keeps the switch usable after a panicking case.
        self.shared
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes an edited copy of the current snapshot under a new epoch.
    fn publish(&self, edit: impl FnOnce(&mut Snapshot)) {
        let mut published = self.lock();
        let mut next = Snapshot::clone(&published);
        edit(&mut next);
        *published = Arc::new(next);
        self.shared.epoch.store(next_epoch(), Ordering::Release);
    }

    /// Arms a fault plan (replacing any previous one).
    pub fn arm(&self, plan: FaultPlan) {
        self.publish(|s| s.plan = Some(plan));
    }

    /// Disarms: back to the original program.
    pub fn disarm(&self) {
        self.publish(|s| s.plan = None);
    }

    /// The currently armed plan, if any.
    pub fn armed(&self) -> Option<FaultPlan> {
        self.lock().plan.clone()
    }

    /// Attaches the cancellation token instrumented reads poll; pass the
    /// runner's `TestRunner::cancel_token` so watchdog deadlines can
    /// interrupt mutant-induced infinite loops.
    pub fn set_cancel_token(&self, token: CancelToken) {
        self.publish(|s| s.cancel = Some(token));
    }

    /// Detaches any cancellation token.
    pub fn clear_cancel_token(&self) {
        self.publish(|s| s.cancel = None);
    }

    /// Instrumented *integer* read of local `var` at `(method, site)`.
    ///
    /// Returns `original` unless the armed plan targets this exact site, in
    /// which case the replacement is applied: bit-negation of the original,
    /// another variable from `env` (missing variables coerce to 0 — the
    /// out-of-scope read the operators can produce), or a required
    /// constant. `env` is consulted only for a `Var` replacement.
    pub fn read_int<S: Scope + ?Sized>(
        &self,
        method: &str,
        site: u32,
        _var: &str,
        original: i64,
        env: &S,
    ) -> i64 {
        self.read(
            method,
            site,
            original,
            |original, replacement| match replacement {
                Replacement::BitNeg => !original,
                Replacement::Var(name) => env.resolve(name).map_or(0, |v| coerce_int(&v)),
                Replacement::Const(c) => c.as_int(),
            },
        )
    }

    /// Instrumented *dynamic-value* read, for sites holding non-integer
    /// data (e.g. the running maximum in `FindMax`).
    pub fn read_value<S: Scope + ?Sized>(
        &self,
        method: &str,
        site: u32,
        _var: &str,
        original: Value,
        env: &S,
    ) -> Value {
        self.read(
            method,
            site,
            original,
            |original, replacement| match replacement {
                Replacement::BitNeg => match original {
                    Value::Int(i) => Value::Int(!i),
                    Value::Bool(b) => Value::Bool(!b),
                    other => other,
                },
                Replacement::Var(name) => env.resolve(name).unwrap_or(Value::Null),
                Replacement::Const(c) => c.as_value(),
            },
        )
    }

    /// The read both instrumented reads share, against the thread's
    /// cached snapshot when its epoch is current.
    #[inline]
    fn read<T, F: FnOnce(T, &Replacement) -> T>(
        &self,
        method: &str,
        site: u32,
        original: T,
        apply: F,
    ) -> T {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        let cached = CACHED.with(move |cached| match &*cached.borrow() {
            Some((copied, snapshot)) if *copied == epoch => {
                Ok(snapshot.read(method, site, original, apply))
            }
            _ => Err((original, apply)),
        });
        match cached {
            Ok(value) => value,
            Err((original, apply)) => self.refresh().read(method, site, original, apply),
        }
    }

    /// Copies the published snapshot into this thread's cache — unless a
    /// scope evaluated by an outer read on this thread still borrows the
    /// cache — and returns it. Kept out of line: inlined, it slows every
    /// cached read.
    #[cold]
    #[inline(never)]
    fn refresh(&self) -> Arc<Snapshot> {
        let (epoch, snapshot) = {
            let published = self.lock();
            let epoch = self.shared.epoch.load(Ordering::Relaxed);
            (epoch, Arc::clone(&published))
        };
        CACHED.with(|cached| {
            if let Ok(mut copy) = cached.try_borrow_mut() {
                *copy = Some((epoch, Arc::clone(&snapshot)));
            }
        });
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_switch_is_identity() {
        let sw = MutationSwitch::new();
        let env = VarEnv::new();
        assert_eq!(sw.read_int("M", 0, "i", 42, &env), 42);
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Str("x".into()), &env),
            Value::Str("x".into())
        );
        assert!(sw.armed().is_none());
    }

    #[test]
    fn bitneg_applies_only_at_matching_site() {
        let sw = MutationSwitch::new();
        sw.arm(FaultPlan {
            method: "M".into(),
            site: 1,
            replacement: Replacement::BitNeg,
        });
        let env = VarEnv::new();
        assert_eq!(sw.read_int("M", 1, "i", 5, &env), !5);
        assert_eq!(sw.read_int("M", 0, "i", 5, &env), 5, "other site untouched");
        assert_eq!(
            sw.read_int("Other", 1, "i", 5, &env),
            5,
            "other method untouched"
        );
    }

    #[test]
    fn var_replacement_reads_environment() {
        let sw = MutationSwitch::new();
        sw.arm(FaultPlan {
            method: "M".into(),
            site: 0,
            replacement: Replacement::Var("count".into()),
        });
        let env = VarEnv::new().bind("count", 9i64);
        assert_eq!(sw.read_int("M", 0, "i", 5, &env), 9);
    }

    #[test]
    fn missing_variable_coerces_to_zero() {
        let sw = MutationSwitch::new();
        sw.arm(FaultPlan {
            method: "M".into(),
            site: 0,
            replacement: Replacement::Var("ghost".into()),
        });
        assert_eq!(sw.read_int("M", 0, "i", 5, &VarEnv::new()), 0);
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Int(5), &VarEnv::new()),
            Value::Null
        );
    }

    #[test]
    fn const_replacement() {
        let sw = MutationSwitch::new();
        sw.arm(FaultPlan {
            method: "M".into(),
            site: 2,
            replacement: Replacement::Const(ReqConst::MaxInt),
        });
        assert_eq!(sw.read_int("M", 2, "i", 5, &VarEnv::new()), i64::MAX);
    }

    #[test]
    fn disarm_restores_original_program() {
        let sw = MutationSwitch::new();
        sw.arm(FaultPlan {
            method: "M".into(),
            site: 0,
            replacement: Replacement::BitNeg,
        });
        assert!(sw.armed().is_some());
        sw.disarm();
        assert_eq!(sw.read_int("M", 0, "i", 7, &VarEnv::new()), 7);
    }

    #[test]
    fn clones_share_the_armed_plan() {
        let sw = MutationSwitch::new();
        let clone = sw.clone();
        sw.arm(FaultPlan {
            method: "M".into(),
            site: 0,
            replacement: Replacement::BitNeg,
        });
        assert_eq!(clone.read_int("M", 0, "i", 0, &VarEnv::new()), !0);
    }

    #[test]
    fn value_bitneg_on_bool_and_passthrough() {
        let sw = MutationSwitch::new();
        sw.arm(FaultPlan {
            method: "M".into(),
            site: 0,
            replacement: Replacement::BitNeg,
        });
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Bool(true), &VarEnv::new()),
            Value::Bool(false)
        );
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Str("s".into()), &VarEnv::new()),
            Value::Str("s".into())
        );
    }

    #[test]
    fn env_shadowing_lookup() {
        let env = VarEnv::new().bind("x", 1i64).bind("x", 2i64);
        assert_eq!(env.lookup("x"), Some(&Value::Int(2)));
        assert_eq!(env.len(), 2);
        assert!(!env.is_empty());
    }

    #[test]
    fn coercions() {
        assert_eq!(coerce_int(&Value::Int(3)), 3);
        assert_eq!(coerce_int(&Value::Bool(true)), 1);
        assert_eq!(coerce_int(&Value::Float(2.9)), 2);
        assert_eq!(coerce_int(&Value::Null), 0);
        assert_eq!(coerce_int(&Value::Str("9".into())), 0);
    }

    #[test]
    fn cancelled_token_unwinds_instrumented_reads() {
        use concat_runtime::{CancelToken, DEADLINE_PANIC_PAYLOAD};
        let sw = MutationSwitch::new();
        let token = CancelToken::new();
        sw.set_cancel_token(token.clone());
        assert_eq!(sw.read_int("M", 0, "i", 1, &VarEnv::new()), 1);
        token.cancel();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(|| sw.read_int("M", 0, "i", 1, &VarEnv::new()));
        std::panic::set_hook(prev);
        let payload = r.unwrap_err();
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&DEADLINE_PANIC_PAYLOAD)
        );
        // The switch survives the unwind (no poisoning) and can detach.
        token.reset();
        sw.clear_cancel_token();
        assert_eq!(sw.read_int("M", 0, "i", 1, &VarEnv::new()), 1);
    }

    #[test]
    fn lazy_scope_runs_only_when_a_var_replacement_fires() {
        use std::cell::Cell;
        let built = Cell::new(0);
        let scope = || {
            built.set(built.get() + 1);
            VarEnv::new().bind("count", 9i64)
        };
        let sw = MutationSwitch::new();
        assert_eq!(sw.read_int("M", 0, "i", 5, &scope), 5, "disarmed");
        let arm = |site, replacement| {
            sw.arm(FaultPlan {
                method: "M".into(),
                site,
                replacement,
            })
        };
        arm(0, Replacement::Var("count".into()));
        assert_eq!(sw.read_int("M", 1, "i", 5, &scope), 5, "other site");
        assert_eq!(sw.read_int("N", 0, "i", 5, &scope), 5, "other method");
        arm(0, Replacement::BitNeg);
        assert_eq!(sw.read_int("M", 0, "i", 5, &scope), !5);
        arm(0, Replacement::Const(ReqConst::One));
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Int(5), &scope),
            Value::Int(1)
        );
        assert_eq!(built.get(), 0, "no Var replacement fired yet");
        arm(0, Replacement::Var("count".into()));
        assert_eq!(sw.read_int("M", 0, "i", 5, &scope), 9);
        assert_eq!(
            sw.read_value("M", 0, "v", Value::Int(5), &scope),
            Value::Int(9)
        );
        assert_eq!(built.get(), 2, "built once per firing read");
    }

    #[test]
    fn arming_on_one_thread_reaches_a_clone_reading_on_another() {
        use std::sync::mpsc;
        let sw = MutationSwitch::new();
        let reader = sw.clone();
        let (go, wait) = mpsc::channel::<()>();
        let (seen, report) = mpsc::channel::<i64>();
        let handle = std::thread::spawn(move || {
            // One read before any arming, so the reader holds a snapshot.
            seen.send(reader.read_int("M", 0, "i", 5, &VarEnv::new()))
                .unwrap();
            while wait.recv().is_ok() {
                seen.send(reader.read_int("M", 0, "i", 5, &VarEnv::new()))
                    .unwrap();
            }
        });
        assert_eq!(report.recv().unwrap(), 5);
        sw.arm(FaultPlan {
            method: "M".into(),
            site: 0,
            replacement: Replacement::BitNeg,
        });
        go.send(()).unwrap();
        assert_eq!(report.recv().unwrap(), !5, "armed plan visible");
        sw.disarm();
        go.send(()).unwrap();
        assert_eq!(report.recv().unwrap(), 5, "disarm visible");
        drop(go);
        handle.join().unwrap();
    }

    #[test]
    fn recreated_switches_never_see_an_earlier_plan() {
        for round in 0..1_000u32 {
            let sw = MutationSwitch::new();
            assert_eq!(
                sw.read_int("M", round % 4, "i", 5, &VarEnv::new()),
                5,
                "fresh switch in round {round} saw a stale plan"
            );
            sw.arm(FaultPlan {
                method: "M".into(),
                site: round % 4,
                replacement: Replacement::BitNeg,
            });
            assert_eq!(sw.read_int("M", round % 4, "i", 5, &VarEnv::new()), !5);
        }
    }

    #[test]
    fn a_scope_may_read_through_another_switch() {
        let outer = MutationSwitch::new();
        outer.arm(FaultPlan {
            method: "M".into(),
            site: 0,
            replacement: Replacement::Var("x".into()),
        });
        let inner = MutationSwitch::new();
        inner.arm(FaultPlan {
            method: "N".into(),
            site: 0,
            replacement: Replacement::BitNeg,
        });
        let scope = || VarEnv::new().bind("x", inner.read_int("N", 0, "y", 3, &VarEnv::new()));
        // Warm this thread's cache on `outer`, so the firing read below
        // evaluates the scope while the cache is borrowed.
        assert_eq!(outer.read_int("M", 1, "i", 5, &scope), 5);
        assert_eq!(outer.read_int("M", 0, "i", 5, &scope), !3);
        assert_eq!(inner.read_int("N", 0, "y", 3, &VarEnv::new()), !3);
        assert_eq!(outer.read_int("M", 0, "i", 5, &scope), !3);
    }

    #[test]
    fn token_attached_after_reads_unwinds_the_next_read() {
        use concat_runtime::DEADLINE_PANIC_PAYLOAD;
        let sw = MutationSwitch::new();
        for i in 0..3 {
            assert_eq!(sw.read_int("M", 0, "i", i, &VarEnv::new()), i);
        }
        let token = CancelToken::new();
        sw.set_cancel_token(token.clone());
        token.cancel();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = std::panic::catch_unwind(|| sw.read_int("M", 0, "i", 1, &VarEnv::new()));
        std::panic::set_hook(prev);
        assert_eq!(
            r.unwrap_err().downcast_ref::<&str>(),
            Some(&DEADLINE_PANIC_PAYLOAD)
        );
    }

    #[test]
    fn displays() {
        let p = FaultPlan {
            method: "Sort1".into(),
            site: 3,
            replacement: Replacement::Var("count".into()),
        };
        let s = p.to_string();
        assert!(s.contains("Sort1"));
        assert!(s.contains("site 3"));
        assert!(s.contains("count"));
        assert!(Replacement::BitNeg.to_string().contains('~'));
        assert!(Replacement::Const(ReqConst::Null)
            .to_string()
            .contains("NULL"));
    }
}
