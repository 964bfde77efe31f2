//! CSV property suite for the streaming reader (PR 4).
//!
//! Four families of properties:
//!
//! 1. **Round-trip**: random tables over all dtypes — with nulls and
//!    hostile strings (embedded `\n`, `\r\n`, bare `\r`, `,`, `"`,
//!    multi-byte UTF-8) — survive `write_csv` → streaming read *exactly*,
//!    **including `Timestamp` columns** (the PR 5 bugfix: `@tick` is now
//!    CSV timestamp syntax, so dtypes and values come back identical).
//! 2. **Seed equivalence**: on every input the original slurping parser
//!    handled, the streaming reader produces a bit-identical table at
//!    every chunk size in {7, 64, 4096, whole-file}. The original parser
//!    is embedded below as `seed_read_csv_str`, verbatim. Since PR 5 the
//!    equivalence domain excludes tokens the reader now types more
//!    precisely than the seed did: `@<i64>` cells (seed: `Str`, now
//!    `Timestamp`) and non-finite float literals like `inf` / `NaN`
//!    (seed: `Float`, now `Str`) — both have dedicated regression tests
//!    in the `csv` module instead.
//! 3. **Budget invariance**: parsing is bit-identical across work budgets
//!    (chunk/block layout depends only on `chunk_size`, never on width).
//! 4. **Widening**: columns whose type changes after one or more blocks
//!    (Int → Float with `-0`/`-00`/`+7`/`007`/2^53 + 1 in the Int part,
//!    Float then Int literals, Int/Bool/Timestamp → Str, leading and
//!    interior all-null blocks) decode bit-identically to the seed parser
//!    — float *bits* included, so a `-0` must come back `-0.0` — at every
//!    chunk size and budgets {1, 2, 8}. The oracle types all-`@tick`
//!    columns as `Timestamp`, the one typing the seed predates.
//!
//! `tests/budget_determinism.rs` at the workspace root additionally drives
//! ingestion through the full pipeline across budgets.

use arda_table::{
    read_csv_str, read_csv_str_with, write_csv, Column, ColumnData, CsvReadOptions, Table,
    TableError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// The seed parser, kept verbatim as the equivalence oracle
// ---------------------------------------------------------------------------

fn seed_parse_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
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
                fields.push(std::mem::take(&mut cur));
            }
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SeedInferred {
    Int,
    Float,
    Bool,
    Str,
}

fn seed_infer_one(s: &str) -> SeedInferred {
    if s.parse::<i64>().is_ok() {
        SeedInferred::Int
    } else if s.parse::<f64>().is_ok() {
        SeedInferred::Float
    } else if matches!(s, "true" | "false" | "TRUE" | "FALSE" | "True" | "False") {
        SeedInferred::Bool
    } else {
        SeedInferred::Str
    }
}

fn seed_unify(a: SeedInferred, b: SeedInferred) -> SeedInferred {
    use SeedInferred::*;
    match (a, b) {
        (x, y) if x == y => x,
        (Int, Float) | (Float, Int) => Float,
        _ => Str,
    }
}

/// The pre-PR-4 `read_csv_str`: slurp, split on `\n`, quote handling per
/// line. Only meaningful on inputs without embedded newlines or blank
/// interior lines — exactly the domain the equivalence property runs on.
fn seed_read_csv_str(name: &str, text: &str) -> Result<Table, TableError> {
    let mut raw: Vec<&str> = text
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .collect();
    if raw.last() == Some(&"") {
        raw.pop();
    }
    let mut lines = raw.into_iter();
    let header = lines
        .next()
        .ok_or_else(|| TableError::Csv("empty input".into()))?;
    if header.trim().is_empty() {
        return Err(TableError::Csv("empty header".into()));
    }
    let names = seed_parse_record(header);
    let width = names.len();

    let mut cells: Vec<Vec<Option<String>>> = vec![Vec::new(); width];
    for (row_no, line) in lines.enumerate() {
        let rec = seed_parse_record(line);
        if rec.len() != width {
            return Err(TableError::Csv(format!(
                "row {} has {} fields, expected {width}",
                row_no + 2,
                rec.len()
            )));
        }
        for (c, field) in rec.into_iter().enumerate() {
            cells[c].push(if field.is_empty() { None } else { Some(field) });
        }
    }

    let mut columns = Vec::with_capacity(width);
    for (c, name) in names.iter().enumerate() {
        let mut ty: Option<SeedInferred> = None;
        for v in cells[c].iter().flatten() {
            let t = seed_infer_one(v);
            ty = Some(match ty {
                None => t,
                Some(prev) => seed_unify(prev, t),
            });
        }
        let data = match ty.unwrap_or(SeedInferred::Str) {
            SeedInferred::Int => ColumnData::Int(
                cells[c]
                    .iter()
                    .map(|v| {
                        v.as_deref()
                            .map(|s| s.parse::<i64>().expect("inferred int"))
                    })
                    .collect(),
            ),
            SeedInferred::Float => ColumnData::Float(
                cells[c]
                    .iter()
                    .map(|v| {
                        v.as_deref()
                            .map(|s| s.parse::<f64>().expect("inferred float"))
                    })
                    .collect(),
            ),
            SeedInferred::Bool => ColumnData::Bool(
                cells[c]
                    .iter()
                    .map(|v| v.as_deref().map(|s| s.eq_ignore_ascii_case("true")))
                    .collect(),
            ),
            SeedInferred::Str => ColumnData::Str(std::mem::take(&mut cells[c])),
        };
        columns.push(Column::new(name.clone(), data));
    }
    Table::new(name, columns)
}

// ---------------------------------------------------------------------------
// Random table generation
// ---------------------------------------------------------------------------

const CHUNK_SIZES: [usize; 4] = [7, 64, 4096, usize::MAX];

/// Hostile characters for string cells. `allow_newlines = false` keeps the
/// value inside the seed parser's domain (it split on `\n` before quotes).
fn hostile_string(rng: &mut StdRng, allow_newlines: bool) -> String {
    let full = [
        'a', 'Z', '0', '7', ',', '"', '\n', '\r', ' ', '\t', '.', '-', 'é', '日', '🦀',
    ];
    // Without newlines: the same alphabet minus `\n` / `\r`, keeping the
    // value inside the seed parser's domain.
    let seed_safe = [
        'a', 'Z', '0', '7', ',', '"', ' ', '\t', '.', '-', 'é', '日', '🦀',
    ];
    let len = rng.gen_range(1usize..10);
    let mut s = String::new();
    for _ in 0..len {
        if allow_newlines {
            s.push(full[rng.gen_range(0usize..full.len())]);
        } else {
            s.push(seed_safe[rng.gen_range(0usize..seed_safe.len())]);
        }
    }
    // Keep the value unambiguously a string: non-empty and not parseable
    // as int/float/bool (an all-digit value would legitimately read back
    // as an Int column).
    if s.trim().is_empty()
        || s.parse::<i64>().is_ok()
        || s.parse::<f64>().is_ok()
        || matches!(
            s.as_str(),
            "true" | "false" | "TRUE" | "FALSE" | "True" | "False"
        )
    {
        s.insert(0, 's');
        s.push('_');
    }
    s
}

/// A random table that CSV round-trips *identically* — all five dtypes
/// when `allow_timestamps` (Timestamp now has the `@tick` CSV syntax);
/// restrict to the seed parser's type surface with
/// `allow_timestamps = false` for the seed-equivalence properties.
fn random_table(rng: &mut StdRng, allow_newlines: bool, allow_timestamps: bool) -> Table {
    let n_rows = rng.gen_range(1usize..30);
    let n_cols = rng.gen_range(1usize..6);
    let mut cols: Vec<Column> = Vec::new();
    let dtype_kinds = if allow_timestamps { 5u32 } else { 4 };
    for c in 0..n_cols {
        let name = format!("c{c}");
        // Row 0 is always non-null so no column collapses to the all-null
        // `Str` fallback (that case has its own test below).
        let null = |rng: &mut StdRng, i: usize| i > 0 && rng.gen_bool(0.25);
        match rng.gen_range(0u32..dtype_kinds) {
            0 => {
                let v: Vec<Option<i64>> = (0..n_rows)
                    .map(|i| (!null(rng, i)).then(|| rng.gen_range(-1_000_000i64..1_000_000)))
                    .collect();
                cols.push(Column::new(&name, ColumnData::Int(v)));
            }
            1 => {
                let v: Vec<Option<f64>> = (0..n_rows)
                    .map(|i| {
                        if i == 0 {
                            Some(0.5) // guarantees the column infers Float
                        } else {
                            (!null(rng, i)).then(|| rng.gen_range(-1e6..1e6))
                        }
                    })
                    .collect();
                cols.push(Column::new(&name, ColumnData::Float(v)));
            }
            2 => {
                let v: Vec<Option<bool>> = (0..n_rows)
                    .map(|i| (!null(rng, i)).then(|| rng.gen_bool(0.5)))
                    .collect();
                cols.push(Column::new(&name, ColumnData::Bool(v)));
            }
            3 => {
                let v: Vec<Option<String>> = (0..n_rows)
                    .map(|i| (!null(rng, i)).then(|| hostile_string(rng, allow_newlines)))
                    .collect();
                cols.push(Column::new(&name, ColumnData::Str(v)));
            }
            _ => {
                let v: Vec<Option<i64>> = (0..n_rows)
                    .map(|i| (!null(rng, i)).then(|| rng.gen_range(-1_000_000i64..1_000_000)))
                    .collect();
                cols.push(Column::new(&name, ColumnData::Timestamp(v)));
            }
        }
    }
    Table::new("t", cols).unwrap()
}

fn to_csv(table: &Table) -> String {
    let mut buf = Vec::new();
    write_csv(table, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// Random tables (all five dtypes — Timestamp included since PR 5 —
/// nulls, hostile strings incl. embedded newlines) round-trip `write_csv`
/// → streaming reader *identically*, at every chunk size.
#[test]
fn random_tables_round_trip_exactly() {
    let mut rng = StdRng::seed_from_u64(0x4a5d);
    for case in 0..40 {
        let table = random_table(&mut rng, true, true);
        let text = to_csv(&table);
        for chunk_size in CHUNK_SIZES {
            let got = read_csv_str_with("t", &text, &CsvReadOptions { chunk_size })
                .unwrap_or_else(|e| panic!("case {case} chunk {chunk_size}: {e}\n{text:?}"));
            assert_eq!(
                got, table,
                "case {case} chunk {chunk_size} round-trip\n{text:?}"
            );
        }
    }
}

/// On seed-parsable inputs (no `@tick` / non-finite tokens — those are
/// typed more precisely now), the streaming reader is bit-identical to
/// the seed parser at every chunk size in {7, 64, 4096, whole-file}.
#[test]
fn streaming_matches_seed_parser_on_every_chunk_size() {
    let mut rng = StdRng::seed_from_u64(0xc0ffee);
    for case in 0..25 {
        let table = random_table(&mut rng, false, false);
        let text = to_csv(&table);
        let seed = seed_read_csv_str("t", &text)
            .unwrap_or_else(|e| panic!("case {case}: seed parser choked: {e}\n{text:?}"));
        for chunk_size in CHUNK_SIZES {
            let got = read_csv_str_with("t", &text, &CsvReadOptions { chunk_size }).unwrap();
            assert_eq!(got, seed, "case {case} chunk {chunk_size}\n{text:?}");
        }
    }
}

/// Hand-written fixtures covering the seed parser's quirks (lenient
/// mid-field quotes, trailing `\r` stripping at EOF, width-1 blank lines,
/// missing trailing newline) stay bit-identical too.
#[test]
fn streaming_matches_seed_parser_on_quirk_fixtures() {
    let fixtures = [
        "a,b\n1,2\n3,4\n",
        "a,b\n1,2\n3,4", // no trailing newline
        "x\n1\n\n2\n",   // width-1 blank line = null (both parsers)
        "a,b\r\n1,x\r\n2,y\r\n",
        "s\nab\"cd,e\"f\n",   // lenient mid-field quotes
        "s\n\"\"\n",          // quoted empty string = null
        "k,v\n1,\n,2\n",      // nulls both sides
        "n\n1\n2.5\n-3\n",    // int widens to float
        "b\ntrue\nFALSE\n",   // bool casings
        "m\n1\nx\n2.5\n",     // mixed to string
        "u,v\nαβ,\"日🦀\"\n", // multi-byte UTF-8
        "t\n@x5\n@\n",        // `@` tokens that are NOT `@<i64>` stay strings
        "a,b\n\"x,y\",\"q\"\"q\"\n",
        "pad\n 1\n",     // leading space defeats int parse in both
        "a,b\n1,2\n\r",  // lone \r tail = popped trailing empty line
        "a,b\n1,2\r",    // \r tail with content = stripped record
        "e\n1e3\n2.5\n", // exponent floats
    ];
    for text in fixtures {
        let seed = seed_read_csv_str("t", text).unwrap();
        for chunk_size in CHUNK_SIZES {
            let got = read_csv_str_with("t", text, &CsvReadOptions { chunk_size }).unwrap();
            assert_eq!(got, seed, "fixture {text:?} chunk {chunk_size}");
        }
    }
}

/// Error cases agree with the seed parser on its own domain: same ragged
/// row reported, same empty-input/header errors.
#[test]
fn streaming_matches_seed_parser_errors() {
    let fixtures = ["a,b\n1\n", "", "\n", "  \nx\n", "a,b\n1,2\n1,2,3\n"];
    for text in fixtures {
        let seed = seed_read_csv_str("t", text).unwrap_err();
        let got = read_csv_str("t", text).unwrap_err();
        assert_eq!(got.to_string(), seed.to_string(), "fixture {text:?}");
    }
}

/// An all-null column falls back to `Str` storage in both parsers.
#[test]
fn all_null_column_matches_seed_fallback() {
    let text = "k,empty\n1,\n2,\n";
    let seed = seed_read_csv_str("t", text).unwrap();
    let got = read_csv_str("t", text).unwrap();
    assert_eq!(got, seed);
    assert_eq!(
        got.column("empty").unwrap().data(),
        &ColumnData::Str(vec![None, None])
    );
}

/// Parsing is bit-identical across work budgets {1, 2, 8}: block layout
/// derives from `chunk_size` alone, and per-block results merge in block
/// order regardless of how many workers the pool grants.
#[test]
fn ingestion_identical_across_budgets() {
    let restore = arda_par::default_threads();
    let mut rng = StdRng::seed_from_u64(0xbadc0de);
    let texts: Vec<String> = (0..6)
        .map(|_| to_csv(&random_table(&mut rng, true, true)))
        .collect();
    for text in &texts {
        let mut reference: Option<Table> = None;
        for budget in [1usize, 2, 8] {
            arda_par::set_default_threads(budget);
            let got = read_csv_str_with(
                "t",
                text,
                &CsvReadOptions {
                    chunk_size: 64, // small chunks → many blocks → real fan-out
                },
            )
            .unwrap();
            match &reference {
                None => reference = Some(got),
                Some(r) => assert_eq!(&got, r, "budget {budget}\n{text:?}"),
            }
        }
    }
    arda_par::set_default_threads(restore);
}

// ---------------------------------------------------------------------------
// Mixed-type columns: types that widen after one or more blocks
// ---------------------------------------------------------------------------

/// `assert_eq!` plus a float bit check: `-0.0 == 0.0` under `PartialEq`,
/// so only the bits tell a `-0` re-parsed as `-0.0` from one converted
/// from `0i64`.
fn assert_bit_identical(got: &Table, want: &Table, context: &str) {
    assert_eq!(got, want, "{context}");
    for (g, w) in got.columns().iter().zip(want.columns()) {
        if let (ColumnData::Float(gv), ColumnData::Float(wv)) = (g.data(), w.data()) {
            let bits =
                |v: &[Option<f64>]| v.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>();
            assert_eq!(bits(gv), bits(wv), "float bits of {}: {context}", g.name());
        }
    }
}

/// The seed parser's table with the one typing it predates: a `Str`
/// column whose non-null cells are all `@<i64>` reads as `Timestamp`.
fn seed_with_ticks(text: &str) -> Result<Table, TableError> {
    let seed = seed_read_csv_str("t", text)?;
    let columns = seed
        .columns()
        .iter()
        .map(|col| match col.data() {
            ColumnData::Str(cells) if cells.iter().flatten().next().is_some() => {
                let ticks: Option<Vec<Option<i64>>> = cells
                    .iter()
                    .map(|cell| match cell {
                        None => Some(None),
                        Some(s) => s.strip_prefix('@')?.parse::<i64>().ok().map(Some),
                    })
                    .collect();
                ticks.map_or_else(
                    || col.clone(),
                    |t| Column::new(col.name(), ColumnData::Timestamp(t)),
                )
            }
            _ => col.clone(),
        })
        .collect();
    Table::new("t", columns)
}

/// Decode `text` at every chunk size in {7, 64, 4096, whole} under budgets
/// {1, 2, 8} and check each decode against the seed parser (with `@tick`
/// columns typed, see [`seed_with_ticks`]), bit for bit.
fn assert_matches_seed_everywhere(text: &str, context: &str) {
    let seed = seed_with_ticks(text)
        .unwrap_or_else(|e| panic!("{context}: seed parser choked: {e}\n{text:?}"));
    for budget in [1usize, 2, 8] {
        for chunk_size in CHUNK_SIZES {
            let got = arda_par::with_ambient(&arda_par::Budget::isolated(budget), || {
                read_csv_str_with("t", text, &CsvReadOptions { chunk_size })
            })
            .unwrap_or_else(|e| panic!("{context} budget {budget} chunk {chunk_size}: {e}"));
            assert_bit_identical(
                &got,
                &seed,
                &format!("{context} budget {budget} chunk {chunk_size}\n{text:?}"),
            );
        }
    }
}

/// A `k,x` table whose `x` column holds `cells` verbatim (`""` = null).
fn keyed_column(cells: &[&str]) -> String {
    let mut text = String::from("k,x\n");
    for (i, cell) in cells.iter().enumerate() {
        text.push_str(&format!("{i},{cell}\n"));
    }
    text
}

/// Int literals whose Float reading differs from `int as f64` (`-0`,
/// `-00`) or that stress the parser (`+7`, `007`, beyond 2^53).
const TRICKY_INTS: [&str; 6] = ["-0", "-00", "+7", "007", "9007199254740993", "42"];

/// Hand-written widenings, each long enough to span several blocks at the
/// small chunk sizes, checked against the seed parser bit for bit.
#[test]
fn widening_fixtures_match_seed_parser() {
    let ints: Vec<&str> = TRICKY_INTS.repeat(8);
    let with = |head: &[&str], tail: &[&str]| -> String {
        let cells: Vec<&str> = head.iter().chain(tail).copied().collect();
        keyed_column(&cells)
    };
    let nulls = [""; 40];
    let fixtures: Vec<(&str, String)> = vec![
        ("int then decimal", with(&ints, &["2.5", "-0", "3"])),
        ("int then exponent", with(&ints, &["1e3"])),
        (
            "float then int literals",
            with(&["0.5"], &[&ints[..], &["-0.0", "7"]].concat()),
        ),
        ("int then text", with(&ints, &["abc", "-0"])),
        (
            "bool then text",
            with(&["true", "False", "TRUE", "false"].repeat(10), &["maybe"]),
        ),
        (
            "timestamp then text",
            with(&["@5", "@-3", "@0"].repeat(12), &["later", "@1"]),
        ),
        (
            "leading all-null blocks",
            with(&nulls, &[&ints[..], &["0.25"]].concat()),
        ),
        (
            "all-null block inside a typed column",
            with(&[&ints[..], &nulls[..]].concat(), &["-0", "1.5"]),
        ),
        (
            "all-null block between int and float",
            with(&[&["3"][..], &nulls[..]].concat(), &["-0", "1.5", "-00"]),
        ),
        ("float, null run, then int literals", {
            let cells = [&["2.75"][..], &nulls[..], &ints[..]].concat();
            keyed_column(&cells)
        }),
        ("timestamps around an all-null block", {
            let cells = [&["@5", "@-3"].repeat(10)[..], &nulls[..], &["@7"]].concat();
            keyed_column(&cells)
        }),
    ];
    for (name, text) in &fixtures {
        assert_matches_seed_everywhere(text, name);
    }
}

/// One random cell of the given kind (text cells are quoted when they
/// hold `,` or `"`; none holds a newline, so the seed parser agrees).
fn mixed_cell(rng: &mut StdRng, kind: u32) -> String {
    match kind {
        0 => String::new(),
        1 => {
            if rng.gen_bool(0.4) {
                TRICKY_INTS[rng.gen_range(0usize..TRICKY_INTS.len())].to_string()
            } else {
                rng.gen_range(-1_000_000i64..1_000_000).to_string()
            }
        }
        2 => match rng.gen_range(0u32..4) {
            0 => "-0.0".to_string(),
            1 => format!("{}e{}", rng.gen_range(-9i64..10), rng.gen_range(-3i64..4)),
            _ => rng.gen_range(-1e6..1e6).to_string(),
        },
        3 => ["true", "false", "TRUE", "FALSE", "True", "False"][rng.gen_range(0usize..6)]
            .to_string(),
        4 => format!("@{}", rng.gen_range(-1_000_000i64..1_000_000)),
        _ => {
            let s = hostile_string(rng, false);
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s
            }
        }
    }
}

/// Random columns built from runs of different cell kinds, so a column's
/// type widens after one or more blocks (Int → Float, Float then Int
/// literals, Int/Bool/Timestamp → Str), starts with all-null runs, or has
/// all-null runs inside a typed stretch. Decoded at chunk sizes
/// {7, 64, 4096, whole} under budgets {1, 2, 8}, bit-identical to the seed
/// parser.
#[test]
fn mixed_type_columns_match_seed_parser() {
    // Kinds: 0 null, 1 int, 2 float, 3 bool, 4 timestamp, 5 text.
    let plans: [&[u32]; 9] = [
        &[1, 2],
        &[2, 1],
        &[1, 5],
        &[3, 5],
        &[4, 5],
        &[0, 1, 2],
        &[1, 0, 2],
        &[2, 0, 1],
        &[0, 4, 0, 4],
    ];
    let mut rng = StdRng::seed_from_u64(0x5eed_ca57);
    for case in 0..30 {
        let n_cols = rng.gen_range(1usize..4);
        let columns: Vec<Vec<String>> = (0..n_cols)
            .map(|_| {
                let plan = plans[rng.gen_range(0usize..plans.len())];
                let mut cells = Vec::new();
                for &kind in plan {
                    for _ in 0..rng.gen_range(1usize..40) {
                        let sprinkled_null = kind != 0 && rng.gen_bool(0.2);
                        cells.push(mixed_cell(&mut rng, if sprinkled_null { 0 } else { kind }));
                    }
                }
                cells
            })
            .collect();
        let n_rows = columns.iter().map(Vec::len).max().unwrap();
        let mut text: String = (0..n_cols)
            .map(|c| format!("c{c}"))
            .collect::<Vec<_>>()
            .join(",");
        text.push('\n');
        for r in 0..n_rows {
            let row: Vec<&str> = columns
                .iter()
                .map(|col| col.get(r).map_or("", String::as_str))
                .collect();
            text.push_str(&row.join(","));
            text.push('\n');
        }
        assert_matches_seed_everywhere(&text, &format!("case {case}"));
    }
}
