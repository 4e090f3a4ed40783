//! Coverage-point instrumentation for the command-line binaries.
//!
//! The paper validates functional equivalence with exhaustive test scripts
//! and reports gcov line coverage above 90% for each setuid binary
//! (Table 7). Our binaries are instrumented with named coverage points at
//! every branch/policy path; the functional-equivalence suite drives both
//! modes and the report gives hit/declared percentages per binary.

use std::collections::BTreeMap;

/// Coverage state: declared points per binary and hit counters.
#[derive(Debug, Default, Clone)]
pub struct Coverage {
    declared: BTreeMap<String, Vec<&'static str>>,
    /// Hit counters, binary → point, so a repeat hit allocates nothing.
    hits: BTreeMap<String, BTreeMap<&'static str, u64>>,
}

/// A per-binary coverage summary row (Table 7 shape).
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageRow {
    /// Binary path.
    pub binary: String,
    /// Number of declared points.
    pub declared: usize,
    /// Number of points hit at least once.
    pub hit: usize,
    /// Percentage hit.
    pub percent: f64,
}

impl Coverage {
    /// Creates empty coverage state.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// Declares the full point list for a binary (its denominator).
    pub fn declare(&mut self, binary: &str, points: &[&'static str]) {
        self.declared.insert(binary.to_string(), points.to_vec());
    }

    /// Records a hit.
    pub fn hit(&mut self, binary: &str, point: &'static str) {
        self.add(binary, point, 1);
    }

    fn add(&mut self, binary: &str, point: &'static str, n: u64) {
        let points = match self.hits.get_mut(binary) {
            Some(points) => points,
            None => self.hits.entry(binary.to_string()).or_default(),
        };
        *points.entry(point).or_insert(0) += n;
    }

    /// Hit count for one point.
    pub fn count(&self, binary: &str, point: &'static str) -> u64 {
        self.hits
            .get(binary)
            .and_then(|points| points.get(point))
            .copied()
            .unwrap_or(0)
    }

    /// Summary rows for all declared binaries.
    pub fn report(&self) -> Vec<CoverageRow> {
        self.declared
            .iter()
            .map(|(binary, points)| {
                let hit = points.iter().filter(|p| self.count(binary, p) > 0).count();
                CoverageRow {
                    binary: binary.clone(),
                    declared: points.len(),
                    hit,
                    percent: if points.is_empty() {
                        100.0
                    } else {
                        100.0 * hit as f64 / points.len() as f64
                    },
                }
            })
            .collect()
    }

    /// Unions another coverage state into this one (merging runs on both
    /// systems, as Table 7 aggregates per binary).
    pub fn merge_from(&mut self, other: &Coverage) {
        for (binary, points) in &other.declared {
            self.declared
                .entry(binary.clone())
                .or_insert_with(|| points.clone());
        }
        for (binary, points) in &other.hits {
            for (point, count) in points {
                self.add(binary, point, *count);
            }
        }
    }

    /// Points never hit for a binary (for widening the test suite).
    pub fn missed(&self, binary: &str) -> Vec<&'static str> {
        self.declared
            .get(binary)
            .map(|points| {
                points
                    .iter()
                    .filter(|p| self.count(binary, p) == 0)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_hit_report() {
        let mut c = Coverage::new();
        c.declare(
            "/bin/mount",
            &["parse", "fstab_hit", "fstab_miss", "mount_ok"],
        );
        c.hit("/bin/mount", "parse");
        c.hit("/bin/mount", "parse");
        c.hit("/bin/mount", "mount_ok");
        let rows = c.report();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].declared, 4);
        assert_eq!(rows[0].hit, 2);
        assert!((rows[0].percent - 50.0).abs() < 1e-9);
        assert_eq!(c.count("/bin/mount", "parse"), 2);
        assert_eq!(c.missed("/bin/mount"), vec!["fstab_hit", "fstab_miss"]);
    }

    #[test]
    fn undeclared_binary_absent_from_report() {
        let mut c = Coverage::new();
        c.hit("/bin/ghost", "x");
        assert!(c.report().is_empty());
        assert!(c.missed("/bin/ghost").is_empty());
    }

    #[test]
    fn empty_point_list_is_100_percent() {
        let mut c = Coverage::new();
        c.declare("/bin/trivial", &[]);
        assert!((c.report()[0].percent - 100.0).abs() < 1e-9);
    }
}
