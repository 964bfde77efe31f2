//! Streaming CSV ingestion with type inference.
//!
//! ARDA's inputs are *repositories* of heterogeneous tables fed by a
//! discovery system (§2, Figure 1); CSV is the lingua franca. This module
//! implements a streaming, budget-parallel RFC-4180 reader plus per-column
//! type inference with the priority
//! `Timestamp(@tick) → Int → finite Float → Bool → Str`; empty fields
//! become nulls.
//!
//! ## The streaming engine
//!
//! The reader never slurps a file into one `String`. Input is consumed in
//! fixed-size byte chunks ([`CsvReadOptions::chunk_size`]); a *quote-aware*
//! boundary scanner — quote parity is tracked across chunk boundaries, so a
//! `"` / `\n` split between two reads cannot confuse it — carves the byte
//! stream into **blocks** of complete records. Records therefore terminate
//! only at newlines *outside* quoted fields, which is what makes embedded
//! `\n` / `\r\n` inside quoted cells parse correctly (RFC 4180 §2.6)
//! instead of erroring as ragged rows.
//!
//! Parsing is **one streaming pass**. Blocks are fanned out in windows on
//! the ambient [`arda_par`] work budget. A worker tokenizes each record
//! once — a record without `"` splits on `,` into borrowed slices; only
//! records holding a quote take the lenient quote loop — and parses each
//! non-null cell once, straight into its column's running block-local
//! type. That type starts at the type the column already has from earlier
//! windows and widens by [`unify`] (`Int ∪ Float → Float`, anything else
//! mixed → `Str`). Partial columns are appended in block order, so ragged
//! rows surface the earliest offending row, exactly like a sequential
//! scan.
//!
//! Every stored value is parsed from its own cell text under the column's
//! *final* type (a `-0` in a column that widens `Int → Float` becomes
//! `-0.0`, never `0i64 as f64`). Widening after values are stored
//! therefore rebuilds them from text:
//!
//! * **Inside a block**, the widened columns are re-parsed from the
//!   block's resident text once the block's types are final (at most two
//!   widenings per column: `Int → Float → Str`).
//! * **Across blocks**, when a block widens a type that an *earlier* block
//!   already stored values under, that text is gone. The rest of the pass
//!   only tracks types and row counts, and the source is re-opened and
//!   streamed once more with the final types. Only inputs whose first
//!   values in some column look narrower than later ones pay this second
//!   pass; a file that fits one block never does.
//!
//! Memory stays bounded by `O(budget width × chunk_size)` of raw text plus
//! the output columns; each block's builders are sized from the record
//! count the boundary scanner already found.
//!
//! Chunk boundaries, block boundaries and the merge order depend only on
//! `chunk_size` — never on the budget width or how many permits the pool
//! granted — and every value comes from its cell's text under the final
//! type, so the resulting [`Table`] is **bit-identical** at any
//! `ARDA_THREADS` / budget, and identical to a whole-file parse at any
//! chunk size. `tests/csv_stream.rs` asserts both properties.
//!
//! ## Semantics
//!
//! * The first record is the header; duplicate names are rejected by
//!   [`Table::new`].
//! * An empty record (blank line) is a full-width row of nulls.
//! * A record's trailing `\r` (the `\r\n` terminator) is stripped; a bare
//!   `\r` *inside* a field is data and [`write_csv`] quotes it (a field
//!   ending in `\r` would otherwise be silently truncated on read-back).
//! * Writing always round-trips: quoted fields escape `"` as `""` and are
//!   emitted for any field containing `,`, `"`, `\n` or `\r`.
//! * `Timestamp` columns write as `@<tick>` and read back as `Timestamp`
//!   (a column must be *all* `@tick`-or-null to infer as `Timestamp`;
//!   mixed with anything else it is text).
//!
//! ## Type-surface limits (use the binary [`crate::store`] format instead)
//!
//! CSV text cannot distinguish `Str("7")` from `Int(7)`, `Str("@5")` from
//! `Timestamp(5)`, or `Str("inf")` from `Float(∞)`. Inference resolves the
//! first two in favour of the typed reading, and the third in favour of
//! `Str`: Float inference admits **finite** literals only, so non-finite
//! values in a Float column degrade to a `Str` column of `inf`/`NaN`
//! tokens on re-read (previously such *text* columns silently became
//! non-finite Float columns that poison k-NN/Relief distances). The
//! `.arda` binary shard format round-trips all five dtypes bit-exactly
//! and is the right store for anything that must survive persistence.

use crate::{Column, ColumnData, Result, Table, TableError};
use std::io::Read;
use std::path::Path;

/// Tuning knobs for the streaming CSV reader.
#[derive(Debug, Clone)]
pub struct CsvReadOptions {
    /// Bytes per streamed chunk. Blocks handed to parallel workers are at
    /// least this large (they extend to the last complete record found).
    /// `usize::MAX` degenerates to a whole-input parse ("slurp mode") —
    /// the output is identical either way.
    pub chunk_size: usize,
}

impl Default for CsvReadOptions {
    fn default() -> Self {
        CsvReadOptions {
            chunk_size: 64 * 1024,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Inferred {
    Int,
    Float,
    Bool,
    Str,
    Timestamp,
}

/// Per-cell type inference with the priority
/// `Timestamp(@tick) → Int → finite Float → Bool → Str`.
///
/// * `@<i64>` is the [`crate::Value::Timestamp`] display form, so a column
///   [`write_csv`] emitted from a Timestamp column reads back as
///   `Timestamp` — the CSV leg of the PR 5 round-trip bugfix (previously
///   such columns silently degraded to `Str`).
/// * Float inference accepts **finite** literals only: tokens like
///   `inf` / `-inf` / `NaN` / `Infinity` / `1e999` stay `Str`. Otherwise an
///   all-text column of such tokens became a Float column of non-finite
///   values that poison k-NN/Relief distances downstream. The trade-off
///   (documented in the module docs) is that non-finite values in a real
///   Float column do not survive a CSV round-trip — use the binary
///   [`crate::store`] format, which round-trips every bit pattern.
fn infer_one(s: &str) -> Inferred {
    if let Some(tick) = s.strip_prefix('@') {
        if tick.parse::<i64>().is_ok() {
            return Inferred::Timestamp;
        }
    }
    if s.parse::<i64>().is_ok() {
        Inferred::Int
    } else if s.parse::<f64>().is_ok_and(f64::is_finite) {
        Inferred::Float
    } else if matches!(s, "true" | "false" | "TRUE" | "FALSE" | "True" | "False") {
        Inferred::Bool
    } else {
        Inferred::Str
    }
}

/// Widen `a` to cover `b`. Associative and commutative, so the per-block
/// fold order cannot change the merged type (the fold still runs in block
/// order for determinism by construction). `Timestamp` only unifies with
/// itself — `@tick` mixed with anything else is text.
fn unify(a: Inferred, b: Inferred) -> Inferred {
    use Inferred::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Int, Float) | (Float, Int) => Float,
        _ => Str,
    }
}

// ---------------------------------------------------------------------------
// Record-level parsing
// ---------------------------------------------------------------------------

/// Parse one raw record (which may contain newlines inside quoted fields)
/// into fields, calling `f(field_index, text)` per unescaped field.
/// Returns the field count.
///
/// Quote handling is deliberately lenient, matching the original reader: a
/// quote toggles quoted mode wherever it appears, `""` inside quotes is a
/// literal `"`.
fn for_each_field(record: &str, mut f: impl FnMut(usize, &str)) -> usize {
    let mut cur = String::new();
    let mut idx = 0usize;
    let mut chars = record.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => {
                f(idx, &cur);
                idx += 1;
                cur.clear();
            }
            c => cur.push(c),
        }
    }
    f(idx, &cur);
    idx + 1
}

/// Parse one record into owned fields.
fn parse_record(record: &str) -> Vec<String> {
    let mut fields = Vec::new();
    for_each_field(record, |_, s| fields.push(s.to_string()));
    fields
}

/// Index of the first `\n` at or after `from` that lies outside quotes
/// (quote parity counted from `from`), or `bytes.len()`.
fn record_end(bytes: &[u8], from: usize) -> usize {
    let mut in_quotes = false;
    bytes[from..]
        .iter()
        .position(|&b| match b {
            b'"' => {
                in_quotes = !in_quotes;
                false
            }
            b'\n' => !in_quotes,
            _ => false,
        })
        .map_or(bytes.len(), |p| from + p)
}

/// `end` moved back over one `\r` of a `\r\n` terminator, never before
/// `start`.
fn strip_cr(bytes: &[u8], start: usize, end: usize) -> usize {
    if end > start && bytes[end - 1] == b'\r' {
        end - 1
    } else {
        end
    }
}

/// Tokenize the complete records of `block`, calling
/// `f(record_index, record, fields)` per record; `record` has the `\n`
/// terminator and one trailing `\r` stripped. `block` must start at a
/// record boundary; newlines inside quoted fields (tracked by quote
/// *parity*, which is equivalent to the field parser's toggling for `""`
/// escapes) do not terminate a record. A final unterminated record (EOF
/// without a newline) is yielded too.
///
/// One byte scan finds both record and field ends, so a record without
/// `"` splits on `,` into borrowed slices of `block`. A record holding a
/// quote is handed to the lenient [`for_each_field`] loop instead.
fn for_each_record(
    block: &str,
    mut f: impl FnMut(usize, &str, &[&str]) -> Result<()>,
) -> Result<()> {
    let bytes = block.as_bytes();
    let mut fields: Vec<&str> = Vec::new();
    let (mut start, mut field_start, mut rec_no, mut i) = (0usize, 0usize, 0usize, 0usize);
    while i < bytes.len() {
        match bytes[i] {
            b',' => {
                fields.push(&block[field_start..i]);
                field_start = i + 1;
            }
            b'\n' => {
                let stop = strip_cr(bytes, start, i);
                fields.push(&block[field_start..stop]);
                f(rec_no, &block[start..stop], &fields)?;
                fields.clear();
                rec_no += 1;
                (start, field_start) = (i + 1, i + 1);
            }
            b'"' => {
                i = record_end(bytes, i);
                let record = &block[start..strip_cr(bytes, start, i)];
                let owned = parse_record(record);
                let refs: Vec<&str> = owned.iter().map(String::as_str).collect();
                f(rec_no, record, &refs)?;
                fields.clear();
                rec_no += 1;
                (start, field_start) = (i + 1, i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    if start < bytes.len() {
        let stop = strip_cr(bytes, start, bytes.len());
        fields.push(&block[field_start..stop]);
        f(rec_no, &block[start..stop], &fields)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Chunked block streaming
// ---------------------------------------------------------------------------

/// A run of complete records carved out of the byte stream.
struct Block {
    text: String,
    /// Global index (header = 0) of this block's first record.
    first_record: usize,
    /// Records in `text`, as counted by the boundary scanner.
    n_records: usize,
}

impl Block {
    /// Leading records that are not data: the header, in the first block.
    fn skip(&self) -> usize {
        usize::from(self.first_record == 0)
    }
}

/// Streams fixed-size chunks from a reader and carves them into [`Block`]s
/// of complete records at quote-aware boundaries. Quote parity persists
/// across chunk reads, so structural characters split between two reads
/// are classified exactly as in a whole-input scan.
struct BlockStream<R: Read> {
    reader: R,
    chunk_size: usize,
    carry: Vec<u8>,
    /// Quote parity at `carry[scanned]`.
    in_quotes: bool,
    /// Prefix of `carry` already boundary-scanned.
    scanned: usize,
    /// Offset just past the last record terminator found in `carry`.
    last_end: usize,
    /// Record terminators found in `carry[..last_end]`.
    pending_records: usize,
    records_emitted: usize,
    eof: bool,
}

impl<R: Read> BlockStream<R> {
    fn new(reader: R, chunk_size: usize) -> Self {
        BlockStream {
            reader,
            chunk_size: chunk_size.max(1),
            carry: Vec::new(),
            in_quotes: false,
            scanned: 0,
            last_end: 0,
            pending_records: 0,
            records_emitted: 0,
            eof: false,
        }
    }

    /// Read one chunk and boundary-scan the new bytes.
    fn fill(&mut self) -> Result<()> {
        let before = self.carry.len();
        let n = self
            .reader
            .by_ref()
            .take(self.chunk_size as u64)
            .read_to_end(&mut self.carry)
            .map_err(|e| TableError::Csv(e.to_string()))?;
        if n == 0 {
            self.eof = true;
        }
        debug_assert_eq!(self.scanned, before);
        let new = &self.carry[before..];
        if !self.in_quotes && !new.contains(&b'"') {
            // No quote anywhere: every newline ends a record.
            if let Some(last) = new.iter().rposition(|&b| b == b'\n') {
                self.last_end = before + last + 1;
                self.pending_records += new.iter().filter(|&&b| b == b'\n').count();
            }
            self.scanned = self.carry.len();
            return Ok(());
        }
        for i in self.scanned..self.carry.len() {
            match self.carry[i] {
                b'"' => self.in_quotes = !self.in_quotes,
                b'\n' if !self.in_quotes => {
                    self.last_end = i + 1;
                    self.pending_records += 1;
                }
                _ => {}
            }
        }
        self.scanned = self.carry.len();
        Ok(())
    }

    /// Next block of complete records, or `None` at end of input. Blocks
    /// split only at record boundaries, so each is valid UTF-8 iff the
    /// input is.
    fn next_block(&mut self) -> Result<Option<Block>> {
        loop {
            if self.last_end > 0 {
                let rest = self.carry.split_off(self.last_end);
                let bytes = std::mem::replace(&mut self.carry, rest);
                let text = String::from_utf8(bytes)
                    .map_err(|_| TableError::Csv("input is not valid UTF-8".into()))?;
                let block = Block {
                    text,
                    first_record: self.records_emitted,
                    n_records: self.pending_records,
                };
                self.records_emitted += self.pending_records;
                self.scanned -= self.last_end;
                self.last_end = 0;
                self.pending_records = 0;
                return Ok(Some(block));
            }
            if self.eof {
                // A lone `\r` tail is the `\r` of a final `\r\n`-style
                // empty line: the original parser stripped it and popped
                // the resulting empty last line, so it is not a record.
                if self.carry.is_empty() || self.carry == b"\r" {
                    return Ok(None);
                }
                let bytes = std::mem::take(&mut self.carry);
                let text = String::from_utf8(bytes)
                    .map_err(|_| TableError::Csv("input is not valid UTF-8".into()))?;
                let block = Block {
                    text,
                    first_record: self.records_emitted,
                    n_records: 1,
                };
                self.records_emitted += 1;
                self.scanned = 0;
                return Ok(Some(block));
            }
            self.fill()?;
        }
    }

    /// Top `window` up to `n` blocks (one parallel window's worth).
    fn fill_window(&mut self, window: &mut Vec<Block>, n: usize) -> Result<()> {
        while window.len() < n.max(1) {
            match self.next_block()? {
                Some(b) => window.push(b),
                None => break,
            }
        }
        Ok(())
    }
}

/// The first record of `block` (terminator and one trailing `\r`
/// stripped), without scanning past it — a block can be the whole input in
/// slurp mode, and the header never needs more than its own bytes.
fn first_record(block: &str) -> &str {
    let bytes = block.as_bytes();
    &block[..strip_cr(bytes, 0, record_end(bytes, 0))]
}

fn ragged(record: usize, got: usize, width: usize) -> TableError {
    // Data record r (header = record 0) is "row r + 1" in the 1-based
    // message convention the original reader used.
    TableError::Csv(format!(
        "row {} has {} fields, expected {width}",
        record + 1,
        got
    ))
}

fn changed() -> TableError {
    TableError::Csv("input changed between streaming passes".into())
}

// ---------------------------------------------------------------------------
// Typed column builders
// ---------------------------------------------------------------------------

fn new_builder(t: Inferred, capacity: usize) -> ColumnData {
    match t {
        Inferred::Int => ColumnData::Int(Vec::with_capacity(capacity)),
        Inferred::Float => ColumnData::Float(Vec::with_capacity(capacity)),
        Inferred::Bool => ColumnData::Bool(Vec::with_capacity(capacity)),
        Inferred::Str => ColumnData::Str(Vec::with_capacity(capacity)),
        Inferred::Timestamp => ColumnData::Timestamp(Vec::with_capacity(capacity)),
    }
}

/// The type a builder stores (each [`Inferred`] has its own variant).
fn kind(data: &ColumnData) -> Inferred {
    match data {
        ColumnData::Int(_) => Inferred::Int,
        ColumnData::Float(_) => Inferred::Float,
        ColumnData::Bool(_) => Inferred::Bool,
        ColumnData::Str(_) => Inferred::Str,
        ColumnData::Timestamp(_) => Inferred::Timestamp,
    }
}

fn push_nulls(data: &mut ColumnData, n: usize) {
    match data {
        ColumnData::Int(v) | ColumnData::Timestamp(v) => v.resize(v.len() + n, None),
        ColumnData::Float(v) => v.resize(v.len() + n, None),
        ColumnData::Str(v) => v.resize(v.len() + n, None),
        ColumnData::Bool(v) => v.resize(v.len() + n, None),
    }
}

/// Parse the non-empty `field` under the builder's type and push it, or
/// return `false` (pushing nothing) when the text is not of that type.
/// Accepts exactly the cells [`infer_one`] types as the builder's type, or
/// as one [`unify`] widens to it (an Int literal in a Float column).
fn push_value(data: &mut ColumnData, field: &str) -> bool {
    match data {
        ColumnData::Int(v) => field.parse::<i64>().map(|x| v.push(Some(x))).is_ok(),
        ColumnData::Timestamp(v) => field
            .strip_prefix('@')
            .and_then(|tick| tick.parse::<i64>().ok())
            .map(|x| v.push(Some(x)))
            .is_some(),
        ColumnData::Float(v) => match field.parse::<f64>() {
            Ok(x) if x.is_finite() => {
                v.push(Some(x));
                true
            }
            _ => false,
        },
        ColumnData::Bool(v) => match field {
            "true" | "TRUE" | "True" => {
                v.push(Some(true));
                true
            }
            "false" | "FALSE" | "False" => {
                v.push(Some(false));
                true
            }
            _ => false,
        },
        ColumnData::Str(v) => {
            v.push(Some(field.to_string()));
            true
        }
    }
}

fn append_data(dst: &mut ColumnData, src: ColumnData) {
    match (dst, src) {
        (ColumnData::Int(d), ColumnData::Int(mut s)) => d.append(&mut s),
        (ColumnData::Float(d), ColumnData::Float(mut s)) => d.append(&mut s),
        (ColumnData::Str(d), ColumnData::Str(mut s)) => d.append(&mut s),
        (ColumnData::Bool(d), ColumnData::Bool(mut s)) => d.append(&mut s),
        (ColumnData::Timestamp(d), ColumnData::Timestamp(mut s)) => d.append(&mut s),
        _ => unreachable!("builders share one type per column"),
    }
}

// ---------------------------------------------------------------------------
// The single pass: one block
// ---------------------------------------------------------------------------

/// One column of a block while it is parsed.
enum Slot {
    /// Every cell so far was null.
    Empty,
    /// Every non-null cell so far, parsed under the builder's type.
    Built(ColumnData),
    /// The type only. Set when a cell widened a built column (its values
    /// are rebuilt from the block's text at the end), or when the block is
    /// parsed for types alone.
    Typed(Inferred),
}

impl Slot {
    fn dtype(&self) -> Option<Inferred> {
        match self {
            Slot::Empty => None,
            Slot::Built(data) => Some(kind(data)),
            Slot::Typed(t) => Some(*t),
        }
    }
}

/// What one block contributes: per-column [`Slot`]s (never
/// [`Slot::Typed`] when the block was built) and its data-row count.
struct Part {
    slots: Vec<Slot>,
    rows: usize,
}

/// Tokenize and parse one block in a single pass. A column starts at its
/// type from earlier windows (`start`, `None` = no value seen yet) and
/// widens as cells demand. With `build` the block's columns come back
/// built — columns that widened after storing values are re-parsed from
/// the block's text under their final block type; without it only types
/// and the row count are tracked.
fn parse_block(block: &Block, start: &[Option<Inferred>], build: bool) -> Result<Part> {
    let width = start.len();
    let capacity = block.n_records;
    let mut slots: Vec<Slot> = start
        .iter()
        .map(|t| match *t {
            Some(t) if build => Slot::Built(new_builder(t, capacity)),
            Some(t) => Slot::Typed(t),
            None => Slot::Empty,
        })
        .collect();
    let mut rows = 0usize;
    for_each_record(&block.text, |i, rec, fields| {
        if i < block.skip() {
            return Ok(());
        }
        let row = rows;
        rows += 1;
        if rec.is_empty() {
            for slot in &mut slots {
                if let Slot::Built(data) = slot {
                    push_nulls(data, 1);
                }
            }
            return Ok(());
        }
        if fields.len() != width {
            return Err(ragged(block.first_record + i, fields.len(), width));
        }
        for (slot, &field) in slots.iter_mut().zip(fields) {
            if field.is_empty() {
                if let Slot::Built(data) = slot {
                    push_nulls(data, 1);
                }
                continue;
            }
            match slot {
                Slot::Built(data) => {
                    if !push_value(data, field) {
                        *slot = Slot::Typed(unify(kind(data), infer_one(field)));
                    }
                }
                Slot::Typed(t) => {
                    if *t != Inferred::Str {
                        *t = unify(*t, infer_one(field));
                    }
                }
                Slot::Empty => {
                    let t = infer_one(field);
                    *slot = if build {
                        let mut data = new_builder(t, capacity);
                        push_nulls(&mut data, row);
                        let parsed = push_value(&mut data, field);
                        debug_assert!(parsed, "infer_one proved the cell parses");
                        Slot::Built(data)
                    } else {
                        Slot::Typed(t)
                    };
                }
            }
        }
        Ok(())
    })?;
    if build {
        let widened: Vec<Option<Inferred>> = slots
            .iter()
            .map(|s| match s {
                Slot::Typed(t) => Some(*t),
                _ => None,
            })
            .collect();
        if widened.iter().any(Option::is_some) {
            for (slot, data) in slots.iter_mut().zip(build_block(block, &widened)?) {
                if let Some(data) = data {
                    *slot = Slot::Built(data);
                }
            }
        }
    }
    Ok(Part { slots, rows })
}

/// Parse the block's cells under fixed types, for the columns with
/// `Some` type only. Every cell must parse: the types were inferred from
/// this very text, so a failure means the source changed between passes.
fn build_block(block: &Block, types: &[Option<Inferred>]) -> Result<Vec<Option<ColumnData>>> {
    let width = types.len();
    let mut cols: Vec<Option<ColumnData>> = types
        .iter()
        .map(|t| t.map(|t| new_builder(t, block.n_records)))
        .collect();
    for_each_record(&block.text, |i, rec, fields| {
        if i < block.skip() {
            return Ok(());
        }
        if rec.is_empty() {
            for data in cols.iter_mut().flatten() {
                push_nulls(data, 1);
            }
            return Ok(());
        }
        if fields.len() != width {
            return Err(ragged(block.first_record + i, fields.len(), width));
        }
        for (col, &field) in cols.iter_mut().zip(fields) {
            let Some(data) = col else {
                continue;
            };
            if field.is_empty() {
                push_nulls(data, 1);
            } else if !push_value(data, field) {
                return Err(changed());
            }
        }
        Ok(())
    })?;
    Ok(cols)
}

// ---------------------------------------------------------------------------
// The single pass: merging blocks in order
// ---------------------------------------------------------------------------

/// The output so far: per-column types and values, merged in block order.
struct Merged {
    types: Vec<Option<Inferred>>,
    /// Values of each column with a type (`None` while every row is null).
    /// Emptied once `restream` is set.
    columns: Vec<Option<ColumnData>>,
    n_rows: usize,
    /// A block widened a column that an earlier block had stored values
    /// under: the values are rebuilt by streaming the source again.
    restream: bool,
}

impl Merged {
    fn new(width: usize) -> Self {
        Merged {
            types: vec![None; width],
            columns: (0..width).map(|_| None).collect(),
            n_rows: 0,
            restream: false,
        }
    }

    /// Append one block's part; `block` is its still-resident text.
    fn push(&mut self, block: &Block, part: Part) -> Result<()> {
        for (c, slot) in part.slots.into_iter().enumerate() {
            let Some(t) = slot.dtype() else {
                if let Some(data) = &mut self.columns[c] {
                    push_nulls(data, part.rows);
                }
                continue;
            };
            let Some(prev) = self.types[c] else {
                self.types[c] = Some(t);
                if let Slot::Built(data) = slot {
                    self.columns[c] = Some(if self.n_rows == 0 {
                        data
                    } else {
                        let mut col = new_builder(t, self.n_rows + data.len());
                        push_nulls(&mut col, self.n_rows);
                        append_data(&mut col, data);
                        col
                    });
                }
                continue;
            };
            let wide = unify(prev, t);
            self.types[c] = Some(wide);
            if wide != prev {
                self.restream = true;
            }
            if self.restream {
                continue;
            }
            let Slot::Built(mut data) = slot else {
                unreachable!("a built part has no type-only slots")
            };
            if t != wide {
                // The column is already wider than this block alone (an Int
                // block after a Float one): re-parse the block's cells.
                let mut types = vec![None; self.types.len()];
                types[c] = Some(wide);
                data = build_block(block, &types)?.swap_remove(c).expect("typed");
            }
            append_data(self.columns[c].as_mut().expect("typed"), data);
        }
        self.n_rows += part.rows;
        if self.restream {
            self.columns.iter_mut().for_each(|col| *col = None);
        }
        Ok(())
    }
}

/// Stream `reader` once more and build every column under its final type
/// (the rare path: see the module docs).
fn restream<R: Read>(
    reader: R,
    opts: &CsvReadOptions,
    types: &[Option<Inferred>],
    n_rows: usize,
) -> Result<Vec<ColumnData>> {
    // An all-null column is stored as `Str`.
    let types: Vec<Option<Inferred>> = types
        .iter()
        .map(|t| Some(t.unwrap_or(Inferred::Str)))
        .collect();
    let mut columns: Vec<ColumnData> = types
        .iter()
        .flatten()
        .map(|&t| new_builder(t, n_rows))
        .collect();
    let mut stream = BlockStream::new(reader, opts.chunk_size);
    loop {
        let mut window = Vec::new();
        stream.fill_window(&mut window, arda_par::current_budget().width())?;
        if window.is_empty() {
            break;
        }
        let parts = arda_par::par_map(&window, 0, |_, block| build_block(block, &types));
        for part in parts {
            for (dst, src) in columns.iter_mut().zip(part?.into_iter().flatten()) {
                append_data(dst, src);
            }
        }
    }
    if columns.first().is_some_and(|c| c.len() != n_rows) {
        return Err(changed());
    }
    Ok(columns)
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Parse a re-openable byte source in one streaming pass (two on the rare
/// cross-block widening path).
fn ingest<R: Read>(
    name: &str,
    open: impl Fn() -> Result<R>,
    opts: &CsvReadOptions,
) -> Result<Table> {
    let mut stream = BlockStream::new(open()?, opts.chunk_size);
    let Some(first) = stream.next_block()? else {
        return Err(TableError::Csv("empty input".into()));
    };
    // The header is the first record of the first block; that block's
    // data records are parsed with the rest of the first window.
    let header = first_record(&first.text);
    if header.trim().is_empty() {
        return Err(TableError::Csv("empty header".into()));
    }
    let names = parse_record(header);
    let mut merged = Merged::new(names.len());
    let mut window = vec![first];
    loop {
        stream.fill_window(&mut window, arda_par::current_budget().width())?;
        if window.is_empty() {
            break;
        }
        let (start, build) = (&merged.types, !merged.restream);
        let parts = arda_par::par_map(&window, 0, |_, block| parse_block(block, start, build));
        // Fold in block order: the *earliest* ragged row wins, just like a
        // sequential scan.
        for (block, part) in window.iter().zip(parts) {
            merged.push(block, part?)?;
        }
        window.clear();
    }
    let columns = if merged.restream {
        restream(open()?, opts, &merged.types, merged.n_rows)?
    } else {
        let n_rows = merged.n_rows;
        merged
            .columns
            .into_iter()
            .map(|col| {
                col.unwrap_or_else(|| {
                    let mut data = new_builder(Inferred::Str, n_rows);
                    push_nulls(&mut data, n_rows);
                    data
                })
            })
            .collect()
    };
    let columns: Vec<Column> = names
        .into_iter()
        .zip(columns)
        .map(|(n, data)| Column::new(n, data))
        .collect();
    Table::new(name, columns)
}

/// Read a table from CSV text with explicit options. The first record is
/// the header; an empty record is a row of nulls; quoted fields may span
/// lines.
pub fn read_csv_str_with(name: &str, text: &str, opts: &CsvReadOptions) -> Result<Table> {
    ingest(name, || Ok(text.as_bytes()), opts)
}

/// Read a table from CSV text (default streaming options).
pub fn read_csv_str(name: &str, text: &str) -> Result<Table> {
    read_csv_str_with(name, text, &CsvReadOptions::default())
}

/// Read a table from a CSV file with explicit options; the table is named
/// after the file stem. The file is streamed once: each cell is tokenized
/// and parsed once, straight into its column, with at most
/// `budget width × chunk_size` bytes of raw text resident. It is re-opened
/// and streamed a second time only when a later block widens a column an
/// earlier block already stored values under (see the module docs).
pub fn read_csv_with(path: impl AsRef<Path>, opts: &CsvReadOptions) -> Result<Table> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table")
        .to_string();
    ingest(
        &name,
        || std::fs::File::open(path).map_err(|e| TableError::Csv(e.to_string())),
        opts,
    )
}

/// Read a table from a CSV file (default streaming options).
pub fn read_csv(path: impl AsRef<Path>) -> Result<Table> {
    read_csv_with(path, &CsvReadOptions::default())
}

/// Read only the header record of a CSV file: the column names, in order.
/// This is the manifest-scan primitive behind directory-sharded
/// repositories — it reads at most a few chunks, never the whole file.
pub fn read_csv_header(path: impl AsRef<Path>) -> Result<Vec<String>> {
    let file = std::fs::File::open(path.as_ref()).map_err(|e| TableError::Csv(e.to_string()))?;
    let mut stream = BlockStream::new(file, CsvReadOptions::default().chunk_size);
    let Some(first) = stream.next_block()? else {
        return Err(TableError::Csv("empty input".into()));
    };
    let header = first_record(&first.text);
    if header.trim().is_empty() {
        return Err(TableError::Csv("empty header".into()));
    }
    Ok(parse_record(header))
}

fn escape(field: &str) -> String {
    // `\r` must be quoted too: an unquoted field ending in `\r` would be
    // read back with the `\r\n`-terminator stripping applied — silent data
    // corruption rather than an error.
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Write a table as CSV (nulls become empty fields). Output always
/// round-trips through the streaming reader.
pub fn write_csv(table: &Table, mut out: impl std::io::Write) -> Result<()> {
    let io_err = |e: std::io::Error| TableError::Csv(e.to_string());
    let header: Vec<String> = table.columns().iter().map(|c| escape(c.name())).collect();
    writeln!(out, "{}", header.join(",")).map_err(io_err)?;
    for i in 0..table.n_rows() {
        let row: Vec<String> = table
            .columns()
            .iter()
            .map(|c| {
                let v = c.get(i);
                if v.is_null() {
                    String::new()
                } else {
                    escape(&v.to_string())
                }
            })
            .collect();
        writeln!(out, "{}", row.join(",")).map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Value};

    #[test]
    fn parses_types_and_nulls() {
        let t = read_csv_str("t", "id,price,name,flag\n1,2.5,apple,true\n2,,pear,false\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.column("id").unwrap().dtype(), DataType::Int);
        assert_eq!(t.column("price").unwrap().dtype(), DataType::Float);
        assert_eq!(t.column("name").unwrap().dtype(), DataType::Str);
        assert_eq!(t.column("flag").unwrap().dtype(), DataType::Bool);
        assert!(t.column("price").unwrap().get(1).is_null());
    }

    #[test]
    fn int_widens_to_float() {
        let t = read_csv_str("t", "x\n1\n2.5\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Float);
        assert_eq!(t.column("x").unwrap().get_f64(0), Some(1.0));
    }

    #[test]
    fn mixed_becomes_string() {
        let t = read_csv_str("t", "x\n1\nhello\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn quoted_fields() {
        let t = read_csv_str("t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.column("a").unwrap().get(0), Value::Str("x,y".into()));
        assert_eq!(
            t.column("b").unwrap().get(0),
            Value::Str("he said \"hi\"".into())
        );
    }

    #[test]
    fn ragged_rows_error() {
        assert!(read_csv_str("t", "a,b\n1\n").is_err());
        assert!(read_csv_str("t", "").is_err());
    }

    #[test]
    fn ragged_error_reports_earliest_row() {
        let err = read_csv_str("t", "a,b\n1,2\n3\n4,5\n6\n").unwrap_err();
        assert_eq!(err.to_string(), "csv error: row 3 has 1 fields, expected 2");
    }

    #[test]
    fn round_trip() {
        let t = read_csv_str("t", "id,name\n1,apple\n2,\n").unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv_str("t", std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert!(back.column("name").unwrap().get(1).is_null());
        assert_eq!(back.column("id").unwrap().get(0), Value::Int(1));
    }

    #[test]
    fn write_escapes_commas() {
        let t = Table::new("t", vec![Column::from_str("s", vec!["a,b"])]).unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("\"a,b\""));
    }

    #[test]
    fn file_round_trip() {
        let t = read_csv_str("t", "a\n1\n2\n").unwrap();
        let dir = std::env::temp_dir().join("arda_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("small.csv");
        let f = std::fs::File::create(&path).unwrap();
        write_csv(&t, f).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back.name(), "small");
        assert_eq!(back.n_rows(), 2);
    }

    // ---- PR 4 regression tests -------------------------------------------

    /// Bugfix: quoted fields containing newlines round-trip. The previous
    /// reader split on `\n` *before* quote handling, so reading back what
    /// `write_csv` produced errored with a ragged-row message.
    #[test]
    fn embedded_newlines_round_trip() {
        let t = Table::new(
            "t",
            vec![
                Column::from_str("s", vec!["a\nb", "c\r\nd", "e,f", "plain"]),
                Column::from_i64("k", vec![1, 2, 3, 4]),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv_str("t", std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(back.n_rows(), 4);
        assert_eq!(back.column("s").unwrap().get(0), Value::Str("a\nb".into()));
        assert_eq!(
            back.column("s").unwrap().get(1),
            Value::Str("c\r\nd".into())
        );
        assert_eq!(back.column("s").unwrap().get(2), Value::Str("e,f".into()));
        assert_eq!(back.column("k").unwrap().get(3), Value::Int(4));
    }

    /// Bugfix: an interior blank line is a full-width record of nulls, as
    /// the doc always promised — previously any table wider than one
    /// column errored on it.
    #[test]
    fn blank_interior_line_is_null_record() {
        let t = read_csv_str("t", "a,b,c\n1,x,true\n\n2,y,false\n").unwrap();
        assert_eq!(t.n_rows(), 3);
        for col in ["a", "b", "c"] {
            assert!(
                t.column(col).unwrap().get(1).is_null(),
                "blank line nulls column {col}"
            );
        }
        assert_eq!(t.column("a").unwrap().get(2), Value::Int(2));
        // A blank *final* line before the trailing newline counts too.
        let t = read_csv_str("t", "a,b\n1,2\n\n").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert!(t.column("a").unwrap().get(1).is_null());
    }

    /// Bugfix: a field with a bare `\r` must be quoted on write; unquoted
    /// it was silently truncated by the reader's `\r\n` stripping — data
    /// corruption, not an error.
    #[test]
    fn bare_cr_fields_survive_round_trip() {
        let t = Table::new(
            "t",
            vec![Column::from_str("s", vec!["ends-in\r", "mid\rdle", "\r"])],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"ends-in\r\""), "cr field quoted: {text:?}");
        let back = read_csv_str("t", &text).unwrap();
        assert_eq!(
            back.column("s").unwrap().get(0),
            Value::Str("ends-in\r".into()),
            "no truncation"
        );
        assert_eq!(
            back.column("s").unwrap().get(1),
            Value::Str("mid\rdle".into())
        );
        assert_eq!(back.column("s").unwrap().get(2), Value::Str("\r".into()));
    }

    /// The streaming reader is chunk-size invariant, including chunks far
    /// smaller than a record and chunks that split quotes/CRLF/UTF-8.
    #[test]
    fn chunk_size_invariance() {
        let text = "name,x,note\nαβγ,1,\"line one\nline two\"\nplain,2,\"q\"\"uote\"\nlast,3,\r\n";
        let whole = read_csv_str_with(
            "t",
            text,
            &CsvReadOptions {
                chunk_size: usize::MAX,
            },
        )
        .unwrap();
        for chunk in [1usize, 2, 3, 7, 64, 4096] {
            let got = read_csv_str_with("t", text, &CsvReadOptions { chunk_size: chunk }).unwrap();
            assert_eq!(got, whole, "chunk_size={chunk}");
        }
        assert_eq!(whole.n_rows(), 3);
        assert_eq!(
            whole.column("note").unwrap().get(0),
            Value::Str("line one\nline two".into())
        );
        assert!(whole.column("note").unwrap().get(2).is_null());
    }

    /// A lone `\r` after the final newline (a `\r\n`-style trailing empty
    /// line truncated at the `\r`) is not a record — the seed parser
    /// stripped it to an empty last line and popped it.
    #[test]
    fn lone_cr_tail_is_not_a_record() {
        let t = read_csv_str("t", "a,b\n1,2\n\r").unwrap();
        assert_eq!(t.n_rows(), 1);
        assert!(read_csv_str("t", "\r").is_err(), "empty input");
        // A `\r` tail *with* content stays a (stripped) record.
        let t = read_csv_str("t", "a,b\n1,2\n3,4\r").unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.column("a").unwrap().get(1), Value::Int(3));
    }

    // ---- PR 5 regression tests -------------------------------------------

    /// Bugfix: a `Timestamp` column survives `write_csv` → read with dtype
    /// and values identical. Previously `@tick` strings read back as `Str`
    /// (the `Inferred` enum had no `Timestamp` variant), so every
    /// persisted repository lost its soft time keys.
    #[test]
    fn timestamp_round_trip() {
        let t = Table::new(
            "t",
            vec![
                Column::new(
                    "ts",
                    ColumnData::Timestamp(vec![Some(86_400), None, Some(-7), Some(0)]),
                ),
                Column::from_i64("k", vec![1, 2, 3, 4]),
            ],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("@86400"), "@tick syntax written: {text:?}");
        for chunk_size in [3usize, 64, usize::MAX] {
            let back = read_csv_str_with("t", &text, &CsvReadOptions { chunk_size }).unwrap();
            assert_eq!(back, t, "chunk_size={chunk_size}");
            assert_eq!(back.column("ts").unwrap().dtype(), DataType::Timestamp);
            assert_eq!(back.column("k").unwrap().dtype(), DataType::Int);
        }
    }

    /// `@tick` mixed with non-timestamp values (or malformed `@` tokens)
    /// stays text — only an all-`@tick` column infers as `Timestamp`.
    #[test]
    fn malformed_or_mixed_ticks_stay_str() {
        for text in ["x\n@5\n6\n", "x\n@5\nhello\n", "x\n@\n@1.5\n", "x\n@@3\n"] {
            let t = read_csv_str("t", text).unwrap();
            assert_eq!(t.column("x").unwrap().dtype(), DataType::Str, "{text:?}");
        }
        // Null cells don't block timestamp inference.
        let t = read_csv_str("t", "x\n@5\n\n@-6\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Timestamp);
        assert_eq!(t.column("x").unwrap().get(1), Value::Null);
        assert_eq!(t.column("x").unwrap().get(2), Value::Timestamp(-6));
    }

    /// Bugfix: non-finite float literals no longer infer as `Float`. An
    /// all-text column of `inf`/`NaN`-style tokens used to become a Float
    /// column whose non-finite values poison k-NN/Relief distances.
    #[test]
    fn non_finite_tokens_stay_str() {
        let t = read_csv_str("t", "x\ninf\nNaN\n-inf\nInfinity\n1e999\n").unwrap();
        let col = t.column("x").unwrap();
        assert_eq!(col.dtype(), DataType::Str);
        assert_eq!(col.get(0), Value::Str("inf".into()));
        assert_eq!(col.get(4), Value::Str("1e999".into()));
        // Finite literals still widen Int → Float as before.
        let t = read_csv_str("t", "x\n1\n2.5e3\n").unwrap();
        assert_eq!(t.column("x").unwrap().dtype(), DataType::Float);
    }

    /// The documented CSV degradation: non-finite values in a *real* Float
    /// column come back as their text tokens (`Str`), values preserved as
    /// strings — not silently re-typed. The binary store round-trips them
    /// exactly; this pin makes the CSV trade-off explicit.
    #[test]
    fn non_finite_floats_degrade_to_str_on_csv_round_trip() {
        let t = Table::new(
            "t",
            vec![Column::from_f64("x", vec![1.5, f64::INFINITY, f64::NAN])],
        )
        .unwrap();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv_str("t", std::str::from_utf8(&buf).unwrap()).unwrap();
        let col = back.column("x").unwrap();
        assert_eq!(col.dtype(), DataType::Str);
        assert_eq!(col.get(0), Value::Str("1.5".into()));
        assert_eq!(col.get(1), Value::Str("inf".into()));
        assert_eq!(col.get(2), Value::Str("NaN".into()));
    }

    #[test]
    fn header_only_and_header_scan() {
        let t = read_csv_str("t", "a,b\n").unwrap();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.column("a").unwrap().dtype(), DataType::Str);

        let dir = std::env::temp_dir().join("arda_csv_header_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.csv");
        std::fs::write(&path, "k,\"v,1\",w\n1,2,3\n").unwrap();
        assert_eq!(
            read_csv_header(&path).unwrap(),
            vec!["k".to_string(), "v,1".to_string(), "w".to_string()]
        );
    }
}
