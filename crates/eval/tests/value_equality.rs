//! `Value` equality against a reference extensional equality.
//!
//! Equality on lists, sets and maps tries shared structure before
//! walking it. This property checks that the shortcut never changes a
//! verdict: for nested values built from lists, sets (in varying
//! insertion order) and maps (with shadowed bindings), `==` must agree
//! with the reference below against three kinds of counterpart:
//!
//! * a shared clone (every spine shared: the O(1) path),
//! * a rebuilt copy, `decode(encode(v))`, and a reshaped copy with sets
//!   and maps re-inserted in another order (nothing shared: the
//!   structural path),
//! * a one-element mutation, which shares as much of `v` as it can —
//!   a list keeps the suffix after the changed element, a map or set
//!   keeps its whole old spine under the new binding or element.

use linguist_eval::value::Value;
use linguist_support::intern::Name;
use linguist_support::pfunc::PartialFn;
use linguist_support::set::LSet;
use proptest::prelude::*;

/// Equality by definition, sharing nothing with `Value::eq`: lists
/// elementwise, sets by mutual membership, maps by their effective
/// bindings (newest binding of each key).
fn reference_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Sym(x), Value::Sym(y)) => x.index() == y.index(),
        (Value::Str(x), Value::Str(y)) => x.as_str() == y.as_str(),
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(p, q)| reference_eq(p, q))
        }
        (Value::Set(x), Value::Set(y)) => {
            let within = |s: &LSet<Value>, t: &LSet<Value>| {
                s.iter().all(|p| t.iter().any(|q| reference_eq(p, q)))
            };
            within(x, y) && within(y, x)
        }
        (Value::Map(x), Value::Map(y)) => {
            let (bx, by) = (bindings(x), bindings(y));
            let within = |s: &[(&Value, &Value)], t: &[(&Value, &Value)]| {
                s.iter().all(|(k, v)| {
                    t.iter()
                        .any(|(k2, v2)| reference_eq(k, k2) && reference_eq(v, v2))
                })
            };
            within(&bx, &by) && within(&by, &bx)
        }
        _ => false,
    }
}

/// The effective bindings of a map: the newest pair of each key.
fn bindings(m: &PartialFn<Value, Value>) -> Vec<(&Value, &Value)> {
    let mut out: Vec<(&Value, &Value)> = Vec::new();
    for (k, v) in m.iter() {
        if !out.iter().any(|(seen, _)| reference_eq(seen, k)) {
            out.push((k, v));
        }
    }
    out
}

/// Scalars from small domains, so that equal elements, duplicate set
/// members and shadowed map keys turn up often.
fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-2i64..3).prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        (0usize..3).prop_map(|i| Value::Sym(Name::from_index(i))),
        "[ab]{0,2}".prop_map(|s| Value::str(&s)),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(3, 64, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5)
                .prop_map(|items| Value::List(items.into_iter().collect())),
            prop::collection::vec(inner.clone(), 0..5)
                .prop_map(|items| Value::Set(items.into_iter().collect())),
            // Keys are scalars from a small domain: later pairs shadow
            // earlier ones often.
            prop::collection::vec((arb_scalar(), inner), 0..5)
                .prop_map(|pairs| Value::Map(pairs.into_iter().collect())),
        ]
    })
}

fn rebuilt(v: &Value) -> Value {
    let mut buf = Vec::new();
    v.encode(&mut buf);
    let mut pos = 0;
    let out = Value::decode(&buf, &mut pos).expect("own encoding decodes");
    assert_eq!(pos, buf.len());
    out
}

/// A copy that shares nothing with `v`, with every set re-inserted in
/// reverse order and every map rebuilt from its effective bindings in
/// reverse order, under a shadowed pair for its first key.
fn reshaped(v: &Value) -> Value {
    match v {
        Value::List(l) => Value::List(l.iter().map(reshaped).collect()),
        Value::Set(s) => {
            let items: Vec<Value> = s.iter().map(reshaped).collect();
            Value::Set(items.into_iter().rev().collect())
        }
        Value::Map(m) => {
            let effective = bindings(m);
            let mut out = PartialFn::empty();
            if let Some((k, _)) = effective.first() {
                out = out.bind(reshaped(k), Value::str("shadowed"));
            }
            for (k, v) in effective.into_iter().rev() {
                out = out.bind(reshaped(k), reshaped(v));
            }
            Value::Map(out)
        }
        scalar => rebuilt(scalar),
    }
}

/// An index below `n` drawn from `pick`, which then moves on.
fn choose(pick: &mut u64, n: usize) -> usize {
    let c = (*pick % n as u64) as usize;
    *pick = pick.rotate_right(7) ^ 0x9E37_79B9_7F4A_7C15;
    c
}

/// Change one element of `v`, chosen by `pick`, keeping as much of `v`'s
/// structure shared as the change allows.
fn mutated(v: &Value, pick: &mut u64) -> Value {
    match v {
        Value::Int(i) => Value::Int(i + 1),
        Value::Bool(b) => Value::Bool(!b),
        Value::Sym(n) => Value::Sym(Name::from_index(n.index() + 1)),
        Value::Str(s) => Value::str(&format!("{}x", s)),
        Value::List(l) if l.is_empty() => Value::List(l.cons(Value::Int(0))),
        Value::List(l) => {
            // Rebuild the prefix up to element `at`, change it, and share
            // the rest of the spine.
            let at = choose(pick, l.len());
            let mut prefix = Vec::new();
            let mut rest = l.clone();
            for _ in 0..at {
                prefix.push(rest.head().expect("in bounds").clone());
                rest = rest.tail().expect("in bounds").clone();
            }
            let changed = mutated(rest.head().expect("in bounds"), pick);
            let mut out = rest.tail().expect("in bounds").cons(changed);
            for item in prefix.into_iter().rev() {
                out = out.cons(item);
            }
            Value::List(out)
        }
        Value::Set(s) => match choose(pick, 2) {
            // A new member over the shared spine.
            0 => Value::Set(s.with(Value::Int(100))),
            // One member changed, the rest re-inserted (a change onto an
            // existing member shrinks the set).
            _ if !s.is_empty() => {
                let at = choose(pick, s.len());
                Value::Set(
                    s.iter()
                        .enumerate()
                        .map(|(i, x)| if i == at { mutated(x, pick) } else { x.clone() })
                        .collect(),
                )
            }
            _ => Value::Set(s.with(Value::Int(-100))),
        },
        Value::Map(m) => {
            let effective = bindings(m);
            if effective.is_empty() || choose(pick, 3) == 0 {
                // A new key over the shared spine.
                Value::Map(m.bind(Value::Int(100), Value::Int(0)))
            } else {
                // Shadow one key with a changed value over the shared spine.
                let (k, v) = effective[choose(pick, effective.len())];
                Value::Map(m.bind(k.clone(), mutated(v, pick)))
            }
        }
    }
}

fn assert_agrees(a: &Value, b: &Value) {
    let expected = reference_eq(a, b);
    assert_eq!(a == b, expected, "{} vs {}", a, b);
    assert_eq!(b == a, expected, "{} vs {} (swapped)", b, a);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn equality_agrees_with_the_extensional_reference(v in arb_value(), pick in any::<u64>()) {
        let shared = v.clone();
        let copy = rebuilt(&v);
        let reordered = reshaped(&v);
        for same in [&shared, &copy, &reordered] {
            prop_assert!(reference_eq(&v, same), "{} vs {}", v, same);
            assert_agrees(&v, same);
        }
        let mut pick = pick;
        let changed = mutated(&v, &mut pick);
        // Every mutation changes the value, so the agreement below is
        // checked on unequal pairs as well as equal ones.
        prop_assert!(!reference_eq(&v, &changed), "{} vs {}", v, changed);
        for other in [&v, &shared, &copy, &reordered] {
            assert_agrees(other, &changed);
        }
        // The rebuilt side of a mutation shares nothing with the original.
        assert_agrees(&copy, &rebuilt(&changed));
    }
}
