//! The one frame model, shared by the interpreter and generated code.
//!
//! A node on the stack keeps its attribute instances in a dense frame,
//! `Vec<Option<Value>>`, one slot per attribute of its symbol
//! (`Grammar::attr_slots`). [`fill_slots`] loads a record into a frame and
//! [`collect_alive`] reads a frame back out in a boundary's record layout
//! (`Lifetimes::layout`): `crate::machine` calls both, and so does every
//! evaluator `linguist_codegen::rustgen` generates, which also shares the
//! interpreter's [`Value`], APT framing, builtins
//! ([`crate::funcs::BUILTINS`]) and operators
//! ([`crate::machine::apply_binop`]). [`encode_outputs`] is the encoding
//! by which compiled and interpreted results are compared byte for byte.
//!
//! The re-exports let a generated crate depend on `linguist-eval` alone.

use crate::value::Value;
pub use linguist_ag::expr::BinOp;
pub use linguist_ag::ids::{AttrId, ProdId, SymbolId};
pub use linguist_support::intern::Name;

/// Load a record's values into the slot frame of symbol `sym`.
/// `attr_slot[a]` is `(owner symbol, slot)` for attribute `a`. Values of
/// unknown attributes or of another symbol's attributes are dropped:
/// nothing could read them.
pub fn fill_slots(
    slots: &mut [Option<Value>],
    sym: u32,
    values: Vec<(AttrId, Value)>,
    attr_slot: &[(u32, usize)],
) {
    for (a, v) in values {
        if let Some(&(owner, s)) = attr_slot.get(a.0 as usize) {
            if owner == sym && s < slots.len() {
                slots[s] = Some(v);
            }
        }
    }
}

/// The present values of a record layout `(attr, slot)`, in its order
/// (sorted by attribute id): the values of the node's record.
pub fn collect_alive(slots: &[Option<Value>], alive: &[(u32, usize)]) -> Vec<(AttrId, Value)> {
    alive
        .iter()
        .filter_map(|&(a, s)| slots[s].as_ref().map(|v| (AttrId(a), v.clone())))
        .collect()
}

/// Root outputs as `[attr u32 LE][value]…`: what a standalone generated
/// evaluator writes to stdout, and what the differential oracle compares.
pub fn encode_outputs(outputs: &[(AttrId, Value)]) -> Vec<u8> {
    let mut buf = Vec::new();
    for (a, v) in outputs {
        buf.extend_from_slice(&a.0.to_le_bytes());
        v.encode(&mut buf);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_slots_keeps_only_the_symbols_own_attributes() {
        // Attributes 0 and 1 belong to symbol 7 (slots 0, 1); attribute 2
        // belongs to symbol 9 (slot 0).
        let table = [(7, 0), (7, 1), (9, 0)];
        let mut slots = vec![None; 2];
        fill_slots(
            &mut slots,
            7,
            vec![
                (AttrId(1), Value::Int(1)),
                (AttrId(2), Value::Int(2)),
                (AttrId(99), Value::Int(99)),
            ],
            &table,
        );
        assert_eq!(slots, vec![None, Some(Value::Int(1))]);
        assert_eq!(
            collect_alive(&slots, &[(0, 0), (1, 1)]),
            vec![(AttrId(1), Value::Int(1))]
        );
    }

    #[test]
    fn outputs_encode_attr_then_value() {
        let bytes = encode_outputs(&[(AttrId(3), Value::Bool(true))]);
        assert_eq!(bytes, vec![3, 0, 0, 0, 1, 1]);
    }
}
