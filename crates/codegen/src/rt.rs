// Self-contained runtime embedded verbatim (as `mod rt`) inside every
// evaluator emitted by `rustgen`. It must stay dependency-free (std only)
// and byte-compatible with the interpreter's `aptfile`/`value`/`funcs`
// stack: identical CRC polynomial, frame layout, value encoding tags,
// collection iteration orders, and standard-function semantics. Any
// divergence here shows up as a differential-oracle failure, not a crash.

use std::rc::Rc;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — same table construction as `eval::crc`.
// ---------------------------------------------------------------------------

const CRC_POLY: u32 = 0xEDB8_8320;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

// ---------------------------------------------------------------------------
// APT v2 container: 28-byte checksummed header + CRC-framed records.
// ---------------------------------------------------------------------------

pub const HEADER_LEN: usize = 28;
const MAGIC: &[u8; 4] = b"APT1";
const VERSION: u16 = 2;
/// Smallest plausible framed record (empty-values symbol record + frame).
const MIN_FRAMED_RECORD: u64 = 19;

fn rd_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn rd_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn rd_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Validate the whole-file header exactly like `aptfile::check_header`.
pub fn check_header(buf: &[u8]) -> Result<(), String> {
    if buf.len() < HEADER_LEN {
        return Err("APT header truncated".to_string());
    }
    if &buf[0..4] != MAGIC {
        return Err("bad APT magic".to_string());
    }
    let version = rd_u16(buf, 4);
    if version != VERSION {
        return Err(format!("unsupported APT version {}", version));
    }
    let stored = rd_u32(buf, 24);
    if crc32(&buf[..24]) != stored {
        return Err("APT header checksum mismatch".to_string());
    }
    let records = rd_u64(buf, 8);
    let bytes = rd_u64(buf, 16);
    if bytes != (buf.len() - HEADER_LEN) as u64 {
        return Err("APT length mismatch".to_string());
    }
    let plausible =
        records.saturating_mul(MIN_FRAMED_RECORD) <= bytes && (records > 0 || bytes == 0);
    if !plausible {
        return Err("implausible APT record count".to_string());
    }
    Ok(())
}

/// Framed writer over an owned buffer; `finish` patches the header.
pub struct Writer {
    buf: Vec<u8>,
    records: u64,
    bytes: u64,
}

impl Default for Writer {
    fn default() -> Writer {
        Writer::new()
    }
}

impl Writer {
    pub fn new() -> Writer {
        Writer {
            buf: vec![0u8; HEADER_LEN],
            records: 0,
            bytes: 0,
        }
    }

    /// Append one record payload as `[len][payload][crc32][len]`.
    pub fn write(&mut self, payload: &[u8]) {
        let len = payload.len() as u32;
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.records += 1;
        self.bytes += payload.len() as u64 + 12;
    }

    pub fn finish(mut self) -> Vec<u8> {
        self.buf[0..4].copy_from_slice(MAGIC);
        self.buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
        self.buf[6] = 0;
        self.buf[7] = 0;
        self.buf[8..16].copy_from_slice(&self.records.to_le_bytes());
        self.buf[16..24].copy_from_slice(&self.bytes.to_le_bytes());
        let crc = crc32(&self.buf[..24]);
        self.buf[24..28].copy_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// Framed reader over a borrowed buffer, forward or backward.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    forward: bool,
}

impl<'a> Reader<'a> {
    pub fn open(buf: &'a [u8], forward: bool) -> Result<Reader<'a>, String> {
        check_header(buf)?;
        Ok(Reader {
            buf,
            pos: if forward { HEADER_LEN } else { buf.len() },
            forward,
        })
    }

    // Fallible and borrowing — deliberately not an `Iterator`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<&'a [u8]>, String> {
        if self.forward {
            self.next_forward()
        } else {
            self.next_backward()
        }
    }

    fn next_forward(&mut self) -> Result<Option<&'a [u8]>, String> {
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        if self.pos + 12 > self.buf.len() {
            return Err("truncated frame".to_string());
        }
        let len = rd_u32(self.buf, self.pos) as usize;
        if self.pos + 12 + len > self.buf.len() {
            return Err("frame overruns file".to_string());
        }
        let payload = &self.buf[self.pos + 4..self.pos + 4 + len];
        let crc = rd_u32(self.buf, self.pos + 4 + len);
        let trail = rd_u32(self.buf, self.pos + 8 + len) as usize;
        if trail != len {
            return Err("frame length trailer mismatch".to_string());
        }
        if crc32(payload) != crc {
            return Err("frame checksum mismatch".to_string());
        }
        self.pos += 12 + len;
        Ok(Some(payload))
    }

    fn next_backward(&mut self) -> Result<Option<&'a [u8]>, String> {
        if self.pos == HEADER_LEN {
            return Ok(None);
        }
        if self.pos < HEADER_LEN + 12 {
            return Err("truncated frame".to_string());
        }
        let len = rd_u32(self.buf, self.pos - 4) as usize;
        if self.pos < HEADER_LEN + 12 + len {
            return Err("frame underruns file".to_string());
        }
        let start = self.pos - 12 - len;
        let lead = rd_u32(self.buf, start) as usize;
        if lead != len {
            return Err("frame length leader mismatch".to_string());
        }
        let payload = &self.buf[start + 4..start + 4 + len];
        let crc = rd_u32(self.buf, start + 4 + len);
        if crc32(payload) != crc {
            return Err("frame checksum mismatch".to_string());
        }
        self.pos = start;
        Ok(Some(payload))
    }
}

// ---------------------------------------------------------------------------
// Values: the interpreter's `Value` with identical encoding and identical
// collection orders (cons-list internals, newest-first set/map iteration).
// ---------------------------------------------------------------------------

pub struct Node {
    head: Value,
    tail: List,
}

/// Immutable cons list (structural sharing, iterative drop).
pub struct List(Option<Rc<Node>>);

impl Clone for List {
    fn clone(&self) -> List {
        List(self.0.clone())
    }
}

impl Drop for List {
    fn drop(&mut self) {
        let mut cur = self.0.take();
        while let Some(rc) = cur {
            match Rc::try_unwrap(rc) {
                Ok(mut node) => cur = node.tail.0.take(),
                Err(_) => break,
            }
        }
    }
}

pub struct ListIter<'a> {
    cur: &'a Option<Rc<Node>>,
}

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a Value;

    fn next(&mut self) -> Option<&'a Value> {
        match self.cur {
            Some(node) => {
                let v = &node.head;
                self.cur = &node.tail.0;
                Some(v)
            }
            None => None,
        }
    }
}

impl List {
    pub fn nil() -> List {
        List(None)
    }

    pub fn cons(&self, v: Value) -> List {
        List(Some(Rc::new(Node {
            head: v,
            tail: self.clone(),
        })))
    }

    pub fn iter(&self) -> ListIter<'_> {
        ListIter { cur: &self.0 }
    }

    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    pub fn head(&self) -> Option<&Value> {
        self.0.as_ref().map(|n| &n.head)
    }

    pub fn tail(&self) -> Option<List> {
        self.0.as_ref().map(|n| n.tail.clone())
    }

    /// New list `self ++ other`: copies the left spine, shares the right.
    pub fn append(&self, other: &List) -> List {
        let items: Vec<Value> = self.iter().cloned().collect();
        let mut out = other.clone();
        for v in items.into_iter().rev() {
            out = out.cons(v);
        }
        out
    }

    /// Order-preserving construction from a front-to-back item vector.
    pub fn from_vec(items: Vec<Value>) -> List {
        let mut out = List::nil();
        for v in items.into_iter().rev() {
            out = out.cons(v);
        }
        out
    }
}

/// Structural equality that stops as soon as both remaining tails are the
/// same node (the interpreter's `List::eq`).
impl PartialEq for List {
    fn eq(&self, other: &List) -> bool {
        let (mut a, mut b) = (&self.0, &other.0);
        loop {
            match (a, b) {
                (None, None) => return true,
                (Some(x), Some(y)) if Rc::ptr_eq(x, y) => return true,
                (Some(x), Some(y)) if x.head == y.head => {
                    a = &x.tail.0;
                    b = &y.tail.0;
                }
                _ => return false,
            }
        }
    }
}

// Set operations over a duplicate-free cons list (newest element at the
// front), mirroring the interpreter's `LSet` exactly.

pub fn set_contains(s: &List, v: &Value) -> bool {
    s.iter().any(|x| x == v)
}

pub fn set_with(s: &List, v: &Value) -> List {
    if set_contains(s, v) {
        s.clone()
    } else {
        s.cons(v.clone())
    }
}

pub fn set_union(a: &List, b: &List) -> List {
    let mut out = b.clone();
    for v in a.iter() {
        out = set_with(&out, v);
    }
    out
}

pub fn set_intersection(a: &List, b: &List) -> List {
    let mut out = List::nil();
    for v in a.iter() {
        if set_contains(b, v) {
            out = set_with(&out, v);
        }
    }
    out
}

pub fn set_difference(a: &List, b: &List) -> List {
    let mut out = List::nil();
    for v in a.iter() {
        if !set_contains(b, v) {
            out = set_with(&out, v);
        }
    }
    out
}

pub fn set_is_subset(a: &List, b: &List) -> bool {
    a.iter().all(|v| set_contains(b, v))
}

/// Set equality: O(1) on a shared spine, a length check before the two
/// subset walks (sets are duplicate-free).
pub fn set_eq(a: &List, b: &List) -> bool {
    if let (Some(x), Some(y)) = (&a.0, &b.0) {
        if Rc::ptr_eq(x, y) {
            return true;
        }
    }
    a.len() == b.len() && set_is_subset(a, b) && set_is_subset(b, a)
}

/// Partial function as a cons list of `(key, value)` pairs; newest binding
/// first, shadowed bindings retained (like the interpreter's `PartialFn`).
pub struct PNode {
    key: Value,
    val: Value,
    tail: Pairs,
}

pub struct Pairs(Option<Rc<PNode>>);

impl Clone for Pairs {
    fn clone(&self) -> Pairs {
        Pairs(self.0.clone())
    }
}

impl Drop for Pairs {
    fn drop(&mut self) {
        let mut cur = self.0.take();
        while let Some(rc) = cur {
            match Rc::try_unwrap(rc) {
                Ok(mut node) => cur = node.tail.0.take(),
                Err(_) => break,
            }
        }
    }
}

pub struct PairIter<'a> {
    cur: &'a Option<Rc<PNode>>,
}

impl<'a> Iterator for PairIter<'a> {
    type Item = (&'a Value, &'a Value);

    fn next(&mut self) -> Option<(&'a Value, &'a Value)> {
        match self.cur {
            Some(node) => {
                let kv = (&node.key, &node.val);
                self.cur = &node.tail.0;
                Some(kv)
            }
            None => None,
        }
    }
}

impl Pairs {
    pub fn nil() -> Pairs {
        Pairs(None)
    }

    pub fn bind(&self, key: Value, val: Value) -> Pairs {
        Pairs(Some(Rc::new(PNode {
            key,
            val,
            tail: self.clone(),
        })))
    }

    pub fn iter(&self) -> PairIter<'_> {
        PairIter { cur: &self.0 }
    }

    /// All pairs, including shadowed ones, newest first.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pair-by-pair equality, stopping at a shared tail; equal pair lists
    /// denote the same function.
    pub fn same_pairs(&self, other: &Pairs) -> bool {
        let (mut a, mut b) = (&self.0, &other.0);
        loop {
            match (a, b) {
                (None, None) => return true,
                (Some(x), Some(y)) if Rc::ptr_eq(x, y) => return true,
                (Some(x), Some(y)) if x.key == y.key && x.val == y.val => {
                    a = &x.tail.0;
                    b = &y.tail.0;
                }
                _ => return false,
            }
        }
    }

    pub fn eval(&self, key: &Value) -> Option<&Value> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Distinct keys, newest first.
    pub fn domain(&self) -> Vec<&Value> {
        let mut out: Vec<&Value> = Vec::new();
        for (k, _) in self.iter() {
            if !out.contains(&k) {
                out.push(k);
            }
        }
        out
    }
}

#[derive(Clone)]
pub enum Value {
    Int(i64),
    Bool(bool),
    Sym(u32),
    Str(Rc<str>),
    List(List),
    Set(List),
    Map(Pairs),
}

impl Value {
    pub fn str(s: &str) -> Value {
        Value::Str(Rc::from(s))
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Sym(_) => "name",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Set(_) => "set",
            Value::Map(_) => "map",
        }
    }

    /// Append this value's encoding; same tags and orders as the
    /// interpreter (`eval::value::Value::encode`).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(i) => {
                out.push(0);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Bool(b) => {
                out.push(1);
                out.push(*b as u8);
            }
            Value::Sym(n) => {
                out.push(2);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::List(l) => {
                out.push(4);
                out.extend_from_slice(&(l.len() as u32).to_le_bytes());
                for v in l.iter() {
                    v.encode(out);
                }
            }
            Value::Set(s) => {
                out.push(5);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                for v in s.iter() {
                    v.encode(out);
                }
            }
            Value::Map(m) => {
                out.push(6);
                out.extend_from_slice(&(m.len() as u32).to_le_bytes());
                for (k, v) in m.iter() {
                    k.encode(out);
                    v.encode(out);
                }
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Sym(a), Value::Sym(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            (Value::Set(a), Value::Set(b)) => set_eq(a, b),
            (Value::Map(a), Value::Map(b)) => {
                if a.same_pairs(b) {
                    return true;
                }
                let da = a.domain();
                let db = b.domain();
                da.len() == db.len() && da.iter().all(|k| a.eval(k) == b.eval(k))
            }
            _ => false,
        }
    }
}

fn take(buf: &[u8], pos: &mut usize, n: usize) -> Result<usize, String> {
    if *pos + n > buf.len() {
        return Err(format!("value decode overrun at byte {}", *pos));
    }
    let at = *pos;
    *pos += n;
    Ok(at)
}

/// Decode one value; inverse of `encode`, with the interpreter's exact
/// reconstruction orders (sets re-collected front-to-back via `with`,
/// maps rebound in reverse so round-trips are stable).
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, String> {
    let at = take(buf, pos, 1)?;
    match buf[at] {
        0 => {
            let at = take(buf, pos, 8)?;
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[at..at + 8]);
            Ok(Value::Int(i64::from_le_bytes(b)))
        }
        1 => {
            let at = take(buf, pos, 1)?;
            match buf[at] {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(format!("bad bool byte {}", b)),
            }
        }
        2 => {
            let at = take(buf, pos, 4)?;
            Ok(Value::Sym(rd_u32(buf, at)))
        }
        3 => {
            let at = take(buf, pos, 4)?;
            let len = rd_u32(buf, at) as usize;
            let at = take(buf, pos, len)?;
            match std::str::from_utf8(&buf[at..at + len]) {
                Ok(s) => Ok(Value::str(s)),
                Err(_) => Err(format!("non-UTF-8 string at byte {}", at)),
            }
        }
        4 => {
            let at = take(buf, pos, 4)?;
            let count = rd_u32(buf, at) as usize;
            let mut items = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                items.push(decode_value(buf, pos)?);
            }
            Ok(Value::List(List::from_vec(items)))
        }
        5 => {
            let at = take(buf, pos, 4)?;
            let count = rd_u32(buf, at) as usize;
            let mut s = List::nil();
            for _ in 0..count {
                let v = decode_value(buf, pos)?;
                s = set_with(&s, &v);
            }
            Ok(Value::Set(s))
        }
        6 => {
            let at = take(buf, pos, 4)?;
            let count = rd_u32(buf, at) as usize;
            let mut pairs = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                let k = decode_value(buf, pos)?;
                let v = decode_value(buf, pos)?;
                pairs.push((k, v));
            }
            let mut m = Pairs::nil();
            for (k, v) in pairs.into_iter().rev() {
                m = m.bind(k, v);
            }
            Ok(Value::Map(m))
        }
        t => Err(format!("bad value tag {} at byte {}", t, at)),
    }
}

// ---------------------------------------------------------------------------
// Records: symbol/production frames with sorted attribute values.
// ---------------------------------------------------------------------------

pub struct Record {
    pub is_prod: bool,
    pub id: u32,
    pub values: Vec<(u32, Value)>,
}

impl Record {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.is_prod as u8);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for (a, v) in &self.values {
            out.extend_from_slice(&a.to_le_bytes());
            v.encode(&mut out);
        }
        out
    }

    pub fn decode(buf: &[u8]) -> Result<Record, String> {
        let mut pos = 0usize;
        let at = take(buf, &mut pos, 1)?;
        let is_prod = match buf[at] {
            0 => false,
            1 => true,
            t => return Err(format!("bad record tag {}", t)),
        };
        let at = take(buf, &mut pos, 4)?;
        let id = rd_u32(buf, at);
        let at = take(buf, &mut pos, 2)?;
        let count = rd_u16(buf, at) as usize;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            let at = take(buf, &mut pos, 4)?;
            let a = rd_u32(buf, at);
            let v = decode_value(buf, &mut pos)?;
            values.push((a, v));
        }
        if pos != buf.len() {
            return Err(format!("{} trailing bytes after record", buf.len() - pos));
        }
        Ok(Record {
            is_prod,
            id,
            values,
        })
    }
}

/// Load decoded record values into a dense slot frame. Attributes that do
/// not belong to this symbol are dropped — the interpreter parks them in a
/// map where nothing ever reads them, so the observable behavior matches.
pub fn fill_slots(slots: &mut [Option<Value>], values: Vec<(u32, Value)>, attr_slot: &[usize]) {
    for (a, v) in values {
        if let Some(&s) = attr_slot.get(a as usize) {
            if s < slots.len() {
                slots[s] = Some(v);
            }
        }
    }
}

/// Collect the present values of an alive-attribute table (already sorted
/// by attribute id) — the compiled form of `NodeState::to_record`.
pub fn collect_alive(slots: &[Option<Value>], alive: &[(u32, usize)]) -> Vec<(u32, Value)> {
    let mut out = Vec::new();
    for &(a, s) in alive {
        if let Some(v) = &slots[s] {
            out.push((a, v.clone()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The 30 standard semantic functions, dispatched on pre-lowercased names.
// Success semantics are byte-for-byte the interpreter's (`eval::funcs`);
// error strings only need to *exist* (any error aborts the compiled run
// and the engine falls back to the interpreter).
// ---------------------------------------------------------------------------

pub fn bottom() -> Value {
    Value::str("\u{22A5}bottom")
}

fn arity(name: &str, args: &[Value], want: usize) -> Result<(), String> {
    if args.len() != want {
        return Err(format!(
            "{} expects {} argument(s), got {}",
            name,
            want,
            args.len()
        ));
    }
    Ok(())
}

fn want_int(name: &str, v: &Value) -> Result<i64, String> {
    match v {
        Value::Int(i) => Ok(*i),
        v => Err(format!("{} expects int, got {}", name, v.type_name())),
    }
}

fn want_bool(name: &str, v: &Value) -> Result<bool, String> {
    match v {
        Value::Bool(b) => Ok(*b),
        v => Err(format!("{} expects bool, got {}", name, v.type_name())),
    }
}

fn want_set<'a>(name: &str, v: &'a Value) -> Result<&'a List, String> {
    match v {
        Value::Set(s) => Ok(s),
        v => Err(format!("{} expects set, got {}", name, v.type_name())),
    }
}

fn want_list<'a>(name: &str, v: &'a Value) -> Result<&'a List, String> {
    match v {
        Value::List(l) => Ok(l),
        v => Err(format!("{} expects list, got {}", name, v.type_name())),
    }
}

fn want_map<'a>(name: &str, v: &'a Value) -> Result<&'a Pairs, String> {
    match v {
        Value::Map(m) => Ok(m),
        v => Err(format!("{} expects map, got {}", name, v.type_name())),
    }
}

pub fn call_func(name: &str, args: &[Value]) -> Result<Value, String> {
    match name {
        "emptyset" => {
            arity(name, args, 0)?;
            Ok(Value::Set(List::nil()))
        }
        "unionsetof" => {
            arity(name, args, 2)?;
            let s = want_set(name, &args[1])?;
            Ok(Value::Set(set_with(s, &args[0])))
        }
        "union" => {
            arity(name, args, 2)?;
            let a = want_set(name, &args[0])?;
            let b = want_set(name, &args[1])?;
            Ok(Value::Set(set_union(a, b)))
        }
        "isin" => {
            arity(name, args, 2)?;
            let s = want_set(name, &args[1])?;
            Ok(Value::Bool(set_contains(s, &args[0])))
        }
        "setsize" => {
            arity(name, args, 1)?;
            let s = want_set(name, &args[0])?;
            Ok(Value::Int(s.len() as i64))
        }
        "intersect" => {
            arity(name, args, 2)?;
            let a = want_set(name, &args[0])?;
            let b = want_set(name, &args[1])?;
            Ok(Value::Set(set_intersection(a, b)))
        }
        "difference" => {
            arity(name, args, 2)?;
            let a = want_set(name, &args[0])?;
            let b = want_set(name, &args[1])?;
            Ok(Value::Set(set_difference(a, b)))
        }
        "stripdigits" => {
            arity(name, args, 1)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::str(s.trim_end_matches(|c: char| c.is_ascii_digit()))),
                v => Err(format!("{} expects string, got {}", name, v.type_name())),
            }
        }
        "nulllist" => {
            arity(name, args, 0)?;
            Ok(Value::List(List::nil()))
        }
        "cons" => {
            arity(name, args, 2)?;
            let l = want_list(name, &args[1])?;
            Ok(Value::List(l.cons(args[0].clone())))
        }
        "cons2" => {
            arity(name, args, 3)?;
            let l = want_list(name, &args[2])?;
            let pair = List::from_vec(vec![args[0].clone(), args[1].clone()]);
            Ok(Value::List(l.cons(Value::List(pair))))
        }
        "cons3" => {
            arity(name, args, 4)?;
            let l = want_list(name, &args[3])?;
            let triple = List::from_vec(vec![args[0].clone(), args[1].clone(), args[2].clone()]);
            Ok(Value::List(l.cons(Value::List(triple))))
        }
        "head" => {
            arity(name, args, 1)?;
            let l = want_list(name, &args[0])?;
            match l.head() {
                Some(v) => Ok(v.clone()),
                None => Err(format!("{} expects non-empty list, got empty list", name)),
            }
        }
        "tail" => {
            arity(name, args, 1)?;
            let l = want_list(name, &args[0])?;
            Ok(Value::List(l.tail().unwrap_or_else(List::nil)))
        }
        "append" => {
            arity(name, args, 2)?;
            let a = want_list(name, &args[0])?;
            let b = want_list(name, &args[1])?;
            Ok(Value::List(a.append(b)))
        }
        "length" => {
            arity(name, args, 1)?;
            let l = want_list(name, &args[0])?;
            Ok(Value::Int(l.len() as i64))
        }
        "emptypf" => {
            arity(name, args, 0)?;
            Ok(Value::Map(Pairs::nil()))
        }
        "conspf" => {
            arity(name, args, 3)?;
            let m = want_map(name, &args[2])?;
            Ok(Value::Map(m.bind(args[0].clone(), args[1].clone())))
        }
        "evalpf" => {
            arity(name, args, 2)?;
            let m = want_map(name, &args[0])?;
            Ok(m.eval(&args[1]).cloned().unwrap_or_else(bottom))
        }
        "isbottom" => {
            arity(name, args, 1)?;
            Ok(Value::Bool(args[0] == bottom()))
        }
        "incrifzero" => {
            arity(name, args, 2)?;
            let x = want_int(name, &args[0])?;
            let y = want_int(name, &args[1])?;
            Ok(Value::Int(if x == 0 { y + 1 } else { y }))
        }
        "incriftrue" => {
            arity(name, args, 2)?;
            let b = want_bool(name, &args[0])?;
            let y = want_int(name, &args[1])?;
            Ok(Value::Int(if b { y + 1 } else { y }))
        }
        "max" => {
            arity(name, args, 2)?;
            let a = want_int(name, &args[0])?;
            let b = want_int(name, &args[1])?;
            Ok(Value::Int(a.max(b)))
        }
        "min" => {
            arity(name, args, 2)?;
            let a = want_int(name, &args[0])?;
            let b = want_int(name, &args[1])?;
            Ok(Value::Int(a.min(b)))
        }
        "mul" => {
            arity(name, args, 2)?;
            let a = want_int(name, &args[0])?;
            let b = want_int(name, &args[1])?;
            Ok(Value::Int(a.wrapping_mul(b)))
        }
        "div" => {
            arity(name, args, 2)?;
            let a = want_int(name, &args[0])?;
            let b = want_int(name, &args[1])?;
            if b == 0 {
                return Err(format!("{} expects non-zero divisor, got 0", name));
            }
            Ok(Value::Int(a / b))
        }
        "not" => {
            arity(name, args, 1)?;
            let b = want_bool(name, &args[0])?;
            Ok(Value::Bool(!b))
        }
        "pow2" => {
            arity(name, args, 1)?;
            let n = want_int(name, &args[0])?;
            if !(0..=62).contains(&n) {
                return Err(format!("{} expects exponent in 0..=62, got int", name));
            }
            Ok(Value::Int(1i64 << n))
        }
        "nullmsglist" => {
            arity(name, args, 0)?;
            Ok(Value::List(List::nil()))
        }
        "consmsg" => {
            arity(name, args, 4)?;
            let l = want_list(name, &args[3])?;
            let triple = List::from_vec(vec![args[0].clone(), args[1].clone(), args[2].clone()]);
            Ok(Value::List(l.cons(Value::List(triple))))
        }
        "mergemsgs" => {
            arity(name, args, 2)?;
            let a = want_list(name, &args[0])?;
            let b = want_list(name, &args[1])?;
            Ok(Value::List(a.append(b)))
        }
        _ => Err(format!("unknown function {}", name)),
    }
}

// ---------------------------------------------------------------------------
// Infix operators — mirror `machine::apply_binop`, including the detail
// that AND/OR evaluate both operands but skip the *type check* of the
// second when the first already decides the result.
// ---------------------------------------------------------------------------

pub fn bin_add(a: Value, b: Value) -> Result<Value, String> {
    Ok(Value::Int(
        want_int("+", &a)?.wrapping_add(want_int("+", &b)?),
    ))
}

pub fn bin_sub(a: Value, b: Value) -> Result<Value, String> {
    Ok(Value::Int(
        want_int("-", &a)?.wrapping_sub(want_int("-", &b)?),
    ))
}

pub fn bin_and(a: Value, b: Value) -> Result<Value, String> {
    Ok(Value::Bool(want_bool("AND", &a)? && want_bool("AND", &b)?))
}

pub fn bin_or(a: Value, b: Value) -> Result<Value, String> {
    Ok(Value::Bool(want_bool("OR", &a)? || want_bool("OR", &b)?))
}

pub fn bin_eq(a: Value, b: Value) -> Result<Value, String> {
    Ok(Value::Bool(a == b))
}

pub fn bin_ne(a: Value, b: Value) -> Result<Value, String> {
    Ok(Value::Bool(a != b))
}

pub fn bin_gt(a: Value, b: Value) -> Result<Value, String> {
    Ok(Value::Bool(want_int(">", &a)? > want_int(">", &b)?))
}

pub fn bin_lt(a: Value, b: Value) -> Result<Value, String> {
    Ok(Value::Bool(want_int("<", &a)? < want_int("<", &b)?))
}
