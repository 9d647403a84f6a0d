//! Fault activation: how one mutant is "compiled in" at runtime.
//!
//! The paper compiled each mutant as a separate class. Our substitution
//! activates exactly one [`FaultPlan`] at a time through a shared
//! [`MutationSwitch`]; instrumented method bodies read their non-interface
//! variables through [`MutationSwitch::read_int`] /
//! [`MutationSwitch::read_value`], which apply the active replacement when
//! the (method, site) matches and are identity otherwise. With no plan
//! active the component *is* the original program.

use crate::operators::ReqConst;
use concat_bit::ComponentFactory;
use concat_runtime::{CancelToken, Value};
use std::fmt;
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
/// Components build one on the stack right before an instrumented read;
/// lookup order is locals first, then globals (attributes), matching the
/// C++ scoping the operators assume.
#[derive(Debug, Clone, Default)]
pub struct VarEnv {
    entries: Vec<(String, Value)>,
}

impl VarEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a variable (later bindings shadow earlier ones on lookup from
    /// the back).
    pub fn bind(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
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

#[derive(Debug, Default)]
struct SwitchState {
    plan: Option<FaultPlan>,
    cancel: Option<CancelToken>,
}

/// Shared mutation switch: the engine arms a plan, instrumented components
/// consult it. Cloning shares the switch.
///
/// Every instrumented read is also a cooperative cancellation point: when
/// a [`CancelToken`] is attached ([`MutationSwitch::set_cancel_token`])
/// and trips — the runner's watchdog at a deadline — the next read
/// unwinds via [`CancelToken::checkpoint`] instead of returning, which is
/// what lets an infinite-loop mutant be interrupted and quarantined: any
/// mutant-induced loop re-reads the mutated site each iteration.
#[derive(Debug, Clone, Default)]
pub struct MutationSwitch {
    active: Arc<Mutex<SwitchState>>,
}

impl MutationSwitch {
    /// Creates a switch with no active fault (original program).
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, SwitchState> {
        // The state is a plain plan/token pair; recovering from a poisoned
        // lock keeps the switch usable after a panicking case.
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arms a fault plan (replacing any previous one).
    pub fn arm(&self, plan: FaultPlan) {
        self.lock().plan = Some(plan);
    }

    /// Disarms: back to the original program.
    pub fn disarm(&self) {
        self.lock().plan = None;
    }

    /// The currently armed plan, if any.
    pub fn armed(&self) -> Option<FaultPlan> {
        self.lock().plan.clone()
    }

    /// Attaches the cancellation token instrumented reads poll; pass the
    /// runner's `TestRunner::cancel_token` so watchdog deadlines can
    /// interrupt mutant-induced infinite loops.
    pub fn set_cancel_token(&self, token: CancelToken) {
        self.lock().cancel = Some(token);
    }

    /// Detaches any cancellation token.
    pub fn clear_cancel_token(&self) {
        self.lock().cancel = None;
    }

    /// Instrumented *integer* read of local `var` at `(method, site)`.
    ///
    /// Returns `original` unless the armed plan targets this exact site, in
    /// which case the replacement is applied: bit-negation of the original,
    /// another variable from `env` (missing variables coerce to 0 — the
    /// out-of-scope read the operators can produce), or a required
    /// constant.
    pub fn read_int(
        &self,
        method: &str,
        site: u32,
        _var: &str,
        original: i64,
        env: &VarEnv,
    ) -> i64 {
        match self.matching_plan(method, site) {
            None => original,
            Some(plan) => match &plan.replacement {
                Replacement::BitNeg => !original,
                Replacement::Var(name) => env.lookup(name).map_or(0, coerce_int),
                Replacement::Const(c) => c.as_int(),
            },
        }
    }

    /// Instrumented *dynamic-value* read, for sites holding non-integer
    /// data (e.g. the running maximum in `FindMax`).
    pub fn read_value(
        &self,
        method: &str,
        site: u32,
        _var: &str,
        original: Value,
        env: &VarEnv,
    ) -> Value {
        match self.matching_plan(method, site) {
            None => original,
            Some(plan) => match &plan.replacement {
                Replacement::BitNeg => match original {
                    Value::Int(i) => Value::Int(!i),
                    Value::Bool(b) => Value::Bool(!b),
                    other => other,
                },
                Replacement::Var(name) => env.lookup(name).cloned().unwrap_or(Value::Null),
                Replacement::Const(c) => c.as_value(),
            },
        }
    }

    fn matching_plan(&self, method: &str, site: u32) -> Option<FaultPlan> {
        let guard = self.lock();
        // Cooperative cancellation point: drop the guard first so the
        // unwinding checkpoint can never poison the switch.
        let cancelled = guard.cancel.clone();
        let plan = match guard.plan.as_ref() {
            Some(p) if p.method == method && p.site == site => Some(p.clone()),
            _ => None,
        };
        drop(guard);
        if let Some(token) = cancelled {
            token.checkpoint();
        }
        plan
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
