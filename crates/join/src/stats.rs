//! Join-key match statistics: intersection scores used to rank candidate
//! joins when the discovery system provides no relevance scores (§4 "Table
//! grouping": "ARDA computes intersection-score"), and the foreign-key
//! domain sizes needed by the Tuple-Ratio rule.

use crate::Result;
use arda_table::{Key, Table};
use std::collections::HashMap;

/// Statistics of one candidate (base, foreign, key) pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStats {
    /// Base rows whose key value appears in the foreign key column.
    pub matched_rows: usize,
    /// Total base rows.
    pub base_rows: usize,
    /// Distinct non-null keys in the base column.
    pub base_distinct: usize,
    /// Distinct non-null keys in the foreign column (the foreign-key domain
    /// size `nR` of the Tuple-Ratio rule).
    pub foreign_distinct: usize,
    /// Distinct keys appearing on both sides.
    pub shared_distinct: usize,
}

impl JoinStats {
    /// Fraction of base rows that would find a hard-join match.
    pub fn intersection_score(&self) -> f64 {
        if self.base_rows == 0 {
            0.0
        } else {
            self.matched_rows as f64 / self.base_rows as f64
        }
    }

    /// Jaccard similarity of the distinct key sets.
    pub fn jaccard(&self) -> f64 {
        let union = self.base_distinct + self.foreign_distinct - self.shared_distinct;
        if union == 0 {
            0.0
        } else {
            self.shared_distinct as f64 / union as f64
        }
    }

    /// Tuple ratio `nS / nR` from Kumar et al.: base training examples over
    /// the foreign-key domain size. Infinite when the domain is empty.
    pub fn tuple_ratio(&self) -> f64 {
        if self.foreign_distinct == 0 {
            f64::INFINITY
        } else {
            self.base_rows as f64 / self.foreign_distinct as f64
        }
    }
}

/// The distinct non-null join keys of a key column (or composite key),
/// each with the number of rows carrying it. Every [`JoinStats`] integer
/// is a function of the two sides' profiles, so a column that takes part
/// in many candidate pairs is keyed and hashed once, not once per pair.
#[derive(Debug, Clone)]
pub struct KeyProfile {
    rows: usize,
    counts: HashMap<Key, usize>,
}

impl KeyProfile {
    /// Profile `key_columns` of `table` (nulls, and composite keys with a
    /// null part, are counted as rows but never as keys).
    pub fn of(table: &Table, key_columns: &[&str]) -> Result<KeyProfile> {
        let mut counts: HashMap<Key, usize> = HashMap::new();
        for key in table.keys(key_columns)?.into_iter().flatten() {
            *counts.entry(key).or_insert(0) += 1;
        }
        Ok(KeyProfile {
            rows: table.n_rows(),
            counts,
        })
    }

    /// Distinct non-null keys.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// [`JoinStats`] of joining `self` (the base side) onto `foreign`.
    pub fn join_stats(&self, foreign: &KeyProfile) -> JoinStats {
        let (mut matched_rows, mut shared_distinct) = (0, 0);
        for (key, &n) in &self.counts {
            if foreign.counts.contains_key(key) {
                matched_rows += n;
                shared_distinct += 1;
            }
        }
        JoinStats {
            matched_rows,
            base_rows: self.rows,
            base_distinct: self.distinct(),
            foreign_distinct: foreign.distinct(),
            shared_distinct,
        }
    }
}

/// Compute [`JoinStats`] for a hard-key candidate.
pub fn join_stats(
    base: &Table,
    foreign: &Table,
    base_keys: &[&str],
    foreign_keys: &[&str],
) -> Result<JoinStats> {
    Ok(KeyProfile::of(base, base_keys)?.join_stats(&KeyProfile::of(foreign, foreign_keys)?))
}

/// The pair-at-a-time implementation the profiles replaced, kept verbatim
/// as the reference the profile-based [`join_stats`] must reproduce.
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::HashSet;

    pub fn join_stats(
        base: &Table,
        foreign: &Table,
        base_keys: &[&str],
        foreign_keys: &[&str],
    ) -> Result<JoinStats> {
        let bkeys = base.keys(base_keys)?;
        let fkeys = foreign.keys(foreign_keys)?;
        let fset: HashSet<&Key> = fkeys.iter().flatten().collect();
        let bset: HashSet<&Key> = bkeys.iter().flatten().collect();
        let matched_rows = bkeys.iter().flatten().filter(|k| fset.contains(k)).count();
        let shared_distinct = bset.iter().filter(|k| fset.contains(*k)).count();
        Ok(JoinStats {
            matched_rows,
            base_rows: base.n_rows(),
            base_distinct: bset.len(),
            foreign_distinct: fset.len(),
            shared_distinct,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arda_table::{Column, DataType, Value};

    fn tables() -> (Table, Table) {
        let base = Table::new("b", vec![Column::from_i64("k", vec![1, 1, 2, 3])]).unwrap();
        let foreign = Table::new("f", vec![Column::from_i64("k", vec![1, 2, 9, 9])]).unwrap();
        (base, foreign)
    }

    #[test]
    fn counts_matches_and_domains() {
        let (b, f) = tables();
        let s = join_stats(&b, &f, &["k"], &["k"]).unwrap();
        assert_eq!(s.matched_rows, 3); // rows with k ∈ {1,1,2}
        assert_eq!(s.base_rows, 4);
        assert_eq!(s.base_distinct, 3);
        assert_eq!(s.foreign_distinct, 3); // {1,2,9}
        assert_eq!(s.shared_distinct, 2); // {1,2}
        assert!((s.intersection_score() - 0.75).abs() < 1e-12);
        assert!((s.jaccard() - 0.5).abs() < 1e-12); // 2 / (3+3-2)
        assert!((s.tuple_ratio() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_foreign_gives_zero_score_and_infinite_ratio() {
        let b = Table::new("b", vec![Column::from_i64("k", vec![1])]).unwrap();
        let f = Table::new("f", vec![Column::from_i64("k", vec![])]).unwrap();
        let s = join_stats(&b, &f, &["k"], &["k"]).unwrap();
        assert_eq!(s.intersection_score(), 0.0);
        assert_eq!(s.jaccard(), 0.0);
        assert!(s.tuple_ratio().is_infinite());
    }

    #[test]
    fn nulls_do_not_count() {
        let b = Table::new("b", vec![Column::from_i64_opt("k", vec![Some(1), None])]).unwrap();
        let f = Table::new("f", vec![Column::from_i64_opt("k", vec![Some(1), None])]).unwrap();
        let s = join_stats(&b, &f, &["k"], &["k"]).unwrap();
        assert_eq!(s.matched_rows, 1);
        assert_eq!(s.base_distinct, 1);
        assert_eq!(s.foreign_distinct, 1);
    }

    #[test]
    fn composite_key_stats() {
        let b = Table::new(
            "b",
            vec![
                Column::from_i64("a", vec![1, 1]),
                Column::from_i64("b", vec![2, 3]),
            ],
        )
        .unwrap();
        let f = Table::new(
            "f",
            vec![
                Column::from_i64("a", vec![1]),
                Column::from_i64("b", vec![2]),
            ],
        )
        .unwrap();
        let s = join_stats(&b, &f, &["a", "b"], &["a", "b"]).unwrap();
        assert_eq!(s.matched_rows, 1);
        assert_eq!(s.shared_distinct, 1);
    }

    /// A column of `n` values of `dtype` drawn from a small domain of
    /// `domain` distinct values (so duplicates are common), a `null_every`
    /// share of them null.
    fn column(
        name: &str,
        dtype: DataType,
        n: usize,
        domain: u64,
        null_every: u64,
        seed: u64,
    ) -> Column {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let values: Vec<Value> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = state % domain.max(1);
                if null_every > 0 && (state >> 32).is_multiple_of(null_every) {
                    return Value::Null;
                }
                match dtype {
                    DataType::Int => Value::Int(v as i64 - 3),
                    DataType::Timestamp => Value::Timestamp(1_000 * v as i64),
                    DataType::Str => Value::Str(format!("k{v}")),
                    DataType::Bool => Value::Bool(v.is_multiple_of(2)),
                    // -0.0 and 0.0 key apart (by bit pattern), NaN never keys.
                    DataType::Float => match v {
                        0 => Value::Float(-0.0),
                        1 => Value::Float(f64::NAN),
                        _ => Value::Float(v as f64 / 4.0),
                    },
                }
            })
            .collect();
        Column::from_values(name, dtype, values).unwrap()
    }

    #[test]
    fn profiles_match_the_pairwise_oracle() {
        let dtypes = [
            DataType::Int,
            DataType::Str,
            DataType::Timestamp,
            DataType::Bool,
            DataType::Float,
        ];
        let mut cases = 0;
        for (d, &dtype) in dtypes.iter().enumerate() {
            for &(nb, nf) in &[(0, 0), (0, 7), (9, 0), (1, 1), (40, 25), (300, 600)] {
                for &(domain, null_every) in &[(1, 0), (5, 3), (60, 0), (400, 7)] {
                    let seed = (d * 1000 + nb + nf) as u64 + domain;
                    let b = column("k", dtype, nb, domain, null_every, seed);
                    let b2 = column("j", DataType::Int, nb, 3, 5, seed + 1);
                    let f = column("k", dtype, nf, domain + 3, null_every, seed + 2);
                    let f2 = column("j", DataType::Int, nf, 3, 0, seed + 3);
                    let base = Table::new("b", vec![b, b2]).unwrap();
                    let foreign = Table::new("f", vec![f, f2]).unwrap();
                    for keys in [&["k"][..], &["k", "j"][..]] {
                        let got = join_stats(&base, &foreign, keys, keys).unwrap();
                        let want = oracle::join_stats(&base, &foreign, keys, keys).unwrap();
                        assert_eq!(
                            got, want,
                            "{dtype:?} {nb}x{nf} domain {domain} keys {keys:?}"
                        );
                        // Swapped sides: the base now has the wider domain.
                        let got = join_stats(&foreign, &base, keys, keys).unwrap();
                        let want = oracle::join_stats(&foreign, &base, keys, keys).unwrap();
                        assert_eq!(got, want, "swapped {dtype:?} {nb}x{nf} keys {keys:?}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 5 * 6 * 4 * 2);
    }

    #[test]
    fn profile_counts_rows_and_distinct_keys() {
        let t = Table::new(
            "t",
            vec![Column::from_str_opt(
                "k",
                vec![Some("a".into()), None, Some("a".into()), Some("b".into())],
            )],
        )
        .unwrap();
        let p = KeyProfile::of(&t, &["k"]).unwrap();
        assert_eq!(p.distinct(), 2);
        let s = p.join_stats(&p);
        assert_eq!((s.base_rows, s.matched_rows, s.shared_distinct), (4, 3, 2));
        assert!(KeyProfile::of(&t, &["missing"]).is_err());
    }
}
