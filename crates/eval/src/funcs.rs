//! The external-function library.
//!
//! "Any identifier that is not a grammar symbol, attribute, or attribute
//! type is treated as an uninterpreted constant or function. All
//! type-checking, storage allocation, and interpretation of types,
//! constants, and functions is done by the compiler for the target
//! programming language" (§IV). Our interpreter plays that target-language
//! role: a [`Funcs`] registry binds the function names a grammar uses to
//! Rust closures. [`Funcs::standard`] provides the library visible in the
//! paper's own figures — `UnionSetof`, `Union`, `IsIn`, `IncrIfZero`,
//! `IncrIfTrue`, `consPF`/`EvalPF`, `cons`-style list builders, message
//! construction — and callers can register more.

use crate::value::Value;
use linguist_support::list::List;
use linguist_support::set::LSet;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error raised by a semantic-function evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuncError {
    /// Call of a function never registered.
    Unknown {
        /// Function name text.
        name: String,
    },
    /// Wrong number of arguments.
    Arity {
        /// Function name.
        name: String,
        /// Expected count.
        expected: usize,
        /// Provided count.
        got: usize,
    },
    /// An argument had the wrong type.
    Type {
        /// Function or operator name.
        name: String,
        /// What was expected.
        expected: &'static str,
        /// What arrived.
        got: &'static str,
    },
}

impl fmt::Display for FuncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuncError::Unknown { name } => write!(f, "unknown external function `{}`", name),
            FuncError::Arity {
                name,
                expected,
                got,
            } => write!(
                f,
                "`{}` expects {} argument(s), got {}",
                name, expected, got
            ),
            FuncError::Type {
                name,
                expected,
                got,
            } => write!(
                f,
                "`{}` expected a {} argument, got {}",
                name, expected, got
            ),
        }
    }
}

impl std::error::Error for FuncError {}

/// Signature of a registered external function.
///
/// `Send + Sync` so a registry can be shared by reference across the
/// batch evaluator's worker threads.
pub type ExternalFn = Arc<dyn Fn(&[Value]) -> Result<Value, FuncError> + Send + Sync>;

/// The function registry.
#[derive(Clone, Default)]
pub struct Funcs {
    map: HashMap<String, ExternalFn>,
}

impl fmt::Debug for Funcs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.map.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("Funcs").field("functions", &names).finish()
    }
}

macro_rules! expect_arity {
    ($name:expr, $args:expr, $n:expr) => {
        if $args.len() != $n {
            return Err(FuncError::Arity {
                name: $name.to_owned(),
                expected: $n,
                got: $args.len(),
            });
        }
    };
}

/// The distinguished "undefined" atom `EvalPF` yields outside a partial
/// function's domain; test with `IsBottom`.
fn bottom() -> Value {
    Value::str("\u{22A5}bottom")
}

fn as_int(name: &str, v: &Value) -> Result<i64, FuncError> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(FuncError::Type {
            name: name.to_owned(),
            expected: "int",
            got: other.type_name(),
        }),
    }
}

fn as_bool(name: &str, v: &Value) -> Result<bool, FuncError> {
    match v {
        Value::Bool(b) => Ok(*b),
        other => Err(FuncError::Type {
            name: name.to_owned(),
            expected: "bool",
            got: other.type_name(),
        }),
    }
}

fn as_set<'a>(name: &str, v: &'a Value) -> Result<&'a LSet<Value>, FuncError> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(FuncError::Type {
            name: name.to_owned(),
            expected: "set",
            got: other.type_name(),
        }),
    }
}

fn as_list<'a>(name: &str, v: &'a Value) -> Result<&'a List<Value>, FuncError> {
    match v {
        Value::List(l) => Ok(l),
        other => Err(FuncError::Type {
            name: name.to_owned(),
            expected: "list",
            got: other.type_name(),
        }),
    }
}

/// Signature of a standard-library function: a plain `fn`, so generated
/// evaluators can call one directly.
pub type BuiltinFn = fn(&[Value]) -> Result<Value, FuncError>;

/// The standard library (the functions the paper's figures use), in one
/// table. [`Funcs::standard`] registers every entry; generated evaluators
/// resolve each call site to an index here at generation time (see
/// [`builtin_index`]), so the interpreter and compiled code run the same
/// functions.
pub const BUILTINS: [(&str, BuiltinFn); 31] = [
    // ---- sets ----------------------------------------------------------
    ("EmptySet", empty_set),
    ("UnionSetof", union_setof),
    ("Union", union),
    ("IsIn", is_in),
    ("SetSize", set_size),
    ("Intersect", intersect),
    ("Difference", difference),
    ("StripDigits", strip_digits),
    // ---- lists ---------------------------------------------------------
    ("NullList", null_list),
    ("Cons", cons),
    ("Cons2", cons2),
    ("Cons3", cons3),
    ("Head", head),
    ("Tail", tail),
    ("Append", append),
    ("Length", length),
    // ---- partial functions ---------------------------------------------
    ("EmptyPF", empty_pf),
    ("ConsPF", cons_pf),
    ("EvalPF", eval_pf),
    ("IsBottom", is_bottom),
    // ---- arithmetic / counting -----------------------------------------
    ("IncrIfZero", incr_if_zero),
    ("IncrIfTrue", incr_if_true),
    ("Max", max),
    ("Min", min),
    ("Mul", mul),
    ("Div", div),
    ("Not", not),
    ("Pow2", pow2),
    // ---- messages (the cons$msg / merge$msgs family) --------------------
    ("NullMsgList", null_msg_list),
    ("ConsMsg", cons_msg),
    ("MergeMsgs", merge_msgs),
];

/// Position of `name` in [`BUILTINS`] (case-insensitive, like
/// [`Funcs::get`]).
pub fn builtin_index(name: &str) -> Option<usize> {
    BUILTINS
        .iter()
        .position(|(n, _)| n.eq_ignore_ascii_case(name))
}

fn empty_set(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("EmptySet", args, 0);
    Ok(Value::empty_set())
}

/// union$setof(elem, set) — add one element.
fn union_setof(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("UnionSetof", args, 2);
    let s = as_set("UnionSetof", &args[1])?;
    Ok(Value::Set(s.with(args[0].clone())))
}

fn union(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Union", args, 2);
    let a = as_set("Union", &args[0])?;
    let b = as_set("Union", &args[1])?;
    Ok(Value::Set(a.union(b)))
}

fn is_in(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("IsIn", args, 2);
    let s = as_set("IsIn", &args[1])?;
    Ok(Value::Bool(s.contains(&args[0])))
}

fn set_size(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("SetSize", args, 1);
    Ok(Value::Int(as_set("SetSize", &args[0])?.len() as i64))
}

fn intersect(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Intersect", args, 2);
    let a = as_set("Intersect", &args[0])?;
    let b = as_set("Intersect", &args[1])?;
    Ok(Value::Set(a.intersection(b)))
}

fn difference(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Difference", args, 2);
    let a = as_set("Difference", &args[0])?;
    let b = as_set("Difference", &args[1])?;
    Ok(Value::Set(a.difference(b)))
}

/// Remove the occurrence-index suffix from an occurrence name:
/// StripDigits('expr1') = 'expr' (Figure-1 convention).
fn strip_digits(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("StripDigits", args, 1);
    match &args[0] {
        Value::Str(s) => Ok(Value::str(s.trim_end_matches(|c: char| c.is_ascii_digit()))),
        other => Err(FuncError::Type {
            name: "StripDigits".to_owned(),
            expected: "string",
            got: other.type_name(),
        }),
    }
}

fn null_list(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("NullList", args, 0);
    Ok(Value::nil())
}

fn cons(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Cons", args, 2);
    let l = as_list("Cons", &args[1])?;
    Ok(Value::List(l.cons(args[0].clone())))
}

/// cons2(a, b, list): push a pair.
fn cons2(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Cons2", args, 3);
    let l = as_list("Cons2", &args[2])?;
    let pair: List<Value> = [args[0].clone(), args[1].clone()].into_iter().collect();
    Ok(Value::List(l.cons(Value::List(pair))))
}

fn cons3(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Cons3", args, 4);
    let l = as_list("Cons3", &args[3])?;
    let triple: List<Value> = [args[0].clone(), args[1].clone(), args[2].clone()]
        .into_iter()
        .collect();
    Ok(Value::List(l.cons(Value::List(triple))))
}

fn head(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Head", args, 1);
    let l = as_list("Head", &args[0])?;
    l.head().cloned().ok_or(FuncError::Type {
        name: "Head".to_owned(),
        expected: "non-empty list",
        got: "empty list",
    })
}

fn tail(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Tail", args, 1);
    let l = as_list("Tail", &args[0])?;
    Ok(Value::List(l.tail().cloned().unwrap_or_default()))
}

fn append(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Append", args, 2);
    let a = as_list("Append", &args[0])?;
    let b = as_list("Append", &args[1])?;
    Ok(Value::List(a.append(b)))
}

fn length(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Length", args, 1);
    Ok(Value::Int(as_list("Length", &args[0])?.len() as i64))
}

fn empty_pf(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("EmptyPF", args, 0);
    Ok(Value::empty_map())
}

fn cons_pf(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("ConsPF", args, 3);
    match &args[2] {
        Value::Map(m) => Ok(Value::Map(m.bind(args[0].clone(), args[1].clone()))),
        other => Err(FuncError::Type {
            name: "ConsPF".to_owned(),
            expected: "map",
            got: other.type_name(),
        }),
    }
}

/// EvalPF(pf, key) = value or the `bottom` atom.
fn eval_pf(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("EvalPF", args, 2);
    match &args[0] {
        Value::Map(m) => Ok(m.eval(&args[1]).cloned().unwrap_or_else(bottom)),
        other => Err(FuncError::Type {
            name: "EvalPF".to_owned(),
            expected: "map",
            got: other.type_name(),
        }),
    }
}

/// Tests a value against the bottom atom EvalPF returns outside a
/// partial function's domain.
fn is_bottom(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("IsBottom", args, 1);
    Ok(Value::Bool(args[0] == bottom()))
}

/// IncrIfZero(x, y): y+1 if x = 0 else y (Figure 1 flavour).
fn incr_if_zero(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("IncrIfZero", args, 2);
    let x = as_int("IncrIfZero", &args[0])?;
    let y = as_int("IncrIfZero", &args[1])?;
    Ok(Value::Int(if x == 0 { y + 1 } else { y }))
}

fn incr_if_true(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("IncrIfTrue", args, 2);
    let c = as_bool("IncrIfTrue", &args[0])?;
    let y = as_int("IncrIfTrue", &args[1])?;
    Ok(Value::Int(if c { y + 1 } else { y }))
}

fn max(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Max", args, 2);
    Ok(Value::Int(
        as_int("Max", &args[0])?.max(as_int("Max", &args[1])?),
    ))
}

fn min(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Min", args, 2);
    Ok(Value::Int(
        as_int("Min", &args[0])?.min(as_int("Min", &args[1])?),
    ))
}

fn mul(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Mul", args, 2);
    Ok(Value::Int(
        as_int("Mul", &args[0])?.wrapping_mul(as_int("Mul", &args[1])?),
    ))
}

fn div(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Div", args, 2);
    let d = as_int("Div", &args[1])?;
    if d == 0 {
        return Err(FuncError::Type {
            name: "Div".to_owned(),
            expected: "non-zero divisor",
            got: "0",
        });
    }
    Ok(Value::Int(as_int("Div", &args[0])? / d))
}

fn not(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Not", args, 1);
    Ok(Value::Bool(!as_bool("Not", &args[0])?))
}

/// 2^n for small non-negative n (Knuth's binary-number values).
fn pow2(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("Pow2", args, 1);
    let n = as_int("Pow2", &args[0])?;
    if !(0..=62).contains(&n) {
        return Err(FuncError::Type {
            name: "Pow2".to_owned(),
            expected: "exponent in 0..=62",
            got: "int",
        });
    }
    Ok(Value::Int(1 << n))
}

fn null_msg_list(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("NullMsgList", args, 0);
    Ok(Value::nil())
}

/// ConsMsg(line, msg, name, rest)
fn cons_msg(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("ConsMsg", args, 4);
    let rest = as_list("ConsMsg", &args[3])?;
    let entry: List<Value> = [args[0].clone(), args[1].clone(), args[2].clone()]
        .into_iter()
        .collect();
    Ok(Value::List(rest.cons(Value::List(entry))))
}

fn merge_msgs(args: &[Value]) -> Result<Value, FuncError> {
    expect_arity!("MergeMsgs", args, 2);
    let a = as_list("MergeMsgs", &args[0])?;
    let b = as_list("MergeMsgs", &args[1])?;
    Ok(Value::List(a.append(b)))
}

impl Funcs {
    /// An empty registry.
    pub fn new() -> Funcs {
        Funcs::default()
    }

    /// The standard library: every entry of [`BUILTINS`]. Names are
    /// matched case-insensitively.
    pub fn standard() -> Funcs {
        let mut f = Funcs::new();
        for (name, func) in BUILTINS {
            f.register(name, func);
        }
        f
    }

    /// Register (or replace) a function.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value, FuncError> + Send + Sync + 'static,
    ) {
        self.map.insert(name.to_ascii_lowercase(), Arc::new(f));
    }

    /// Look up by name (case-insensitive).
    pub fn get(&self, name: &str) -> Option<&ExternalFn> {
        self.map.get(&name.to_ascii_lowercase())
    }

    /// Invoke `name` with `args`.
    ///
    /// # Errors
    ///
    /// [`FuncError::Unknown`] if unregistered, or whatever the function
    /// raises.
    pub fn call(&self, name: &str, args: &[Value]) -> Result<Value, FuncError> {
        match self.get(name) {
            Some(f) => f(args),
            None => Err(FuncError::Unknown {
                name: name.to_owned(),
            }),
        }
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_functions_behave() {
        let f = Funcs::standard();
        let s = f.call("EmptySet", &[]).unwrap();
        let s = f.call("UnionSetof", &[Value::Int(1), s]).unwrap();
        let s = f.call("UnionSetof", &[Value::Int(2), s]).unwrap();
        let s2 = f.call("UnionSetof", &[Value::Int(1), s.clone()]).unwrap();
        assert_eq!(
            f.call("SetSize", std::slice::from_ref(&s2)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            f.call("IsIn", &[Value::Int(2), s2]).unwrap(),
            Value::Bool(true)
        );
        let t = f
            .call("UnionSetof", &[Value::Int(9), Value::empty_set()])
            .unwrap();
        let u = f.call("Union", &[s, t]).unwrap();
        assert_eq!(f.call("SetSize", &[u]).unwrap(), Value::Int(3));
    }

    #[test]
    fn list_functions_behave() {
        let f = Funcs::standard();
        let l = f.call("NullList", &[]).unwrap();
        let l = f.call("Cons", &[Value::Int(2), l]).unwrap();
        let l = f.call("Cons", &[Value::Int(1), l]).unwrap();
        assert_eq!(
            f.call("Length", std::slice::from_ref(&l)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            f.call("Head", std::slice::from_ref(&l)).unwrap(),
            Value::Int(1)
        );
        let t = f.call("Tail", &[l]).unwrap();
        assert_eq!(f.call("Head", &[t]).unwrap(), Value::Int(2));
    }

    #[test]
    fn pf_functions_behave() {
        let f = Funcs::standard();
        let m = f.call("EmptyPF", &[]).unwrap();
        let m = f
            .call("ConsPF", &[Value::str("k"), Value::Int(5), m])
            .unwrap();
        assert_eq!(
            f.call("EvalPF", &[m.clone(), Value::str("k")]).unwrap(),
            Value::Int(5)
        );
        // Outside the domain: the bottom atom, which is <> any normal value.
        let bottom = f.call("EvalPF", &[m, Value::str("zz")]).unwrap();
        assert_ne!(bottom, Value::Int(5));
    }

    #[test]
    fn incr_functions_match_figure_one() {
        let f = Funcs::standard();
        assert_eq!(
            f.call("IncrIfZero", &[Value::Int(0), Value::Int(7)])
                .unwrap(),
            Value::Int(8)
        );
        assert_eq!(
            f.call("IncrIfZero", &[Value::Int(3), Value::Int(7)])
                .unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            f.call("IncrIfTrue", &[Value::Bool(true), Value::Int(1)])
                .unwrap(),
            Value::Int(2)
        );
    }

    #[test]
    fn errors_are_descriptive() {
        let f = Funcs::standard();
        let e = f.call("NoSuchFn", &[]).unwrap_err();
        assert!(e.to_string().contains("NoSuchFn"));
        let e = f.call("Head", &[]).unwrap_err();
        assert!(matches!(e, FuncError::Arity { .. }));
        let e = f.call("IsIn", &[Value::Int(1), Value::Int(2)]).unwrap_err();
        assert!(matches!(e, FuncError::Type { .. }));
        let e = f.call("Div", &[Value::Int(1), Value::Int(0)]).unwrap_err();
        assert!(e.to_string().contains("non-zero"));
    }

    #[test]
    fn standard_registers_the_whole_table() {
        let f = Funcs::standard();
        assert_eq!(f.len(), BUILTINS.len());
        for (i, (name, _)) in BUILTINS.iter().enumerate() {
            assert!(f.get(name).is_some(), "{}", name);
            assert_eq!(builtin_index(&name.to_ascii_uppercase()), Some(i));
        }
        assert_eq!(builtin_index("NoSuchFn"), None);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let f = Funcs::standard();
        assert!(f
            .call("unionsetof", &[Value::Int(1), Value::empty_set()])
            .is_ok());
        assert!(f
            .call("UNIONSETOF", &[Value::Int(1), Value::empty_set()])
            .is_ok());
    }

    #[test]
    fn user_registration_overrides() {
        let mut f = Funcs::standard();
        f.register("Max", |_| Ok(Value::Int(42)));
        assert_eq!(
            f.call("Max", &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Int(42)
        );
    }

    #[test]
    fn messages_build_and_merge() {
        let f = Funcs::standard();
        let nil = f.call("NullMsgList", &[]).unwrap();
        let a = f
            .call(
                "ConsMsg",
                &[
                    Value::Int(3),
                    Value::str("boom"),
                    Value::str("x"),
                    nil.clone(),
                ],
            )
            .unwrap();
        let b = f
            .call(
                "ConsMsg",
                &[Value::Int(7), Value::str("pow"), Value::str("y"), nil],
            )
            .unwrap();
        let m = f.call("MergeMsgs", &[a, b]).unwrap();
        assert_eq!(f.call("Length", &[m]).unwrap(), Value::Int(2));
    }
}
