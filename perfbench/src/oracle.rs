//! Brute-force answers over the generated reports, independent of the
//! systems' code: a sub-query matches a report of its attribute whose
//! value lies in `[low, high]` (a point query has `low == high`), and a
//! query's answer is the set of owners that match every sub-query.

use std::collections::BTreeSet;

/// One availability report.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Attribute id.
    pub attr: u32,
    /// Reported value.
    pub value: f64,
    /// Owning physical node.
    pub owner: usize,
}

/// One attribute constraint.
#[derive(Debug, Clone, Copy)]
pub struct Sub {
    /// Attribute id.
    pub attr: u32,
    /// Inclusive lower bound.
    pub low: f64,
    /// Inclusive upper bound.
    pub high: f64,
}

/// Reports grouped by attribute.
pub struct Oracle {
    by_attr: Vec<Vec<(f64, usize)>>,
}

impl Oracle {
    /// Index `reports` by attribute.
    pub fn new(reports: &[Report]) -> Self {
        let attrs = reports.iter().map(|r| r.attr as usize + 1).max().unwrap_or(0);
        let mut by_attr = vec![Vec::new(); attrs];
        for r in reports {
            by_attr[r.attr as usize].push((r.value, r.owner));
        }
        Self { by_attr }
    }

    /// The sorted owners matching every sub-query.
    pub fn answer(&self, subs: &[Sub]) -> Vec<usize> {
        let mut acc: Option<BTreeSet<usize>> = None;
        for s in subs {
            let owners: BTreeSet<usize> = self
                .by_attr
                .get(s.attr as usize)
                .into_iter()
                .flatten()
                .filter(|&&(v, _)| s.low <= v && v <= s.high)
                .map(|&(_, o)| o)
                .collect();
            acc = Some(match acc {
                None => owners,
                Some(prev) => prev.intersection(&owners).copied().collect(),
            });
        }
        acc.unwrap_or_default().into_iter().collect()
    }
}

/// Sorted, deduplicated copy of an owner set.
pub fn canonical(mut owners: Vec<usize>) -> Vec<usize> {
    owners.sort_unstable();
    owners.dedup();
    owners
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joins_owners_across_attributes() {
        let reports = [
            Report { attr: 0, value: 3.0, owner: 7 },
            Report { attr: 0, value: 5.0, owner: 8 },
            Report { attr: 1, value: 1.0, owner: 8 },
            Report { attr: 1, value: 9.0, owner: 7 },
        ];
        let o = Oracle::new(&reports);
        assert_eq!(o.answer(&[Sub { attr: 0, low: 3.0, high: 5.0 }]), vec![7, 8]);
        let both = [Sub { attr: 0, low: 3.0, high: 5.0 }, Sub { attr: 1, low: 0.0, high: 2.0 }];
        assert_eq!(o.answer(&both), vec![8]);
        assert!(o.answer(&[Sub { attr: 0, low: 4.0, high: 4.0 }]).is_empty());
    }
}
