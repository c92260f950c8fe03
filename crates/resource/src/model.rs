//! The resource model: attributes, resource information, queries.
//!
//! Following §III of the paper, a grid resource is described by a set of
//! attributes with globally known types (`a`) and values or string
//! descriptions (`π_a`). *Resource information* is the 3-tuple
//! `⟨a, π_a, ip_addr⟩` — either an availability report from the resource's
//! owner or a request. String descriptions are handled exactly like
//! values: the paper uses "attribute value" for the locality-preserving
//! hash of either, so the model stores a numeric value and leaves the
//! encoding of strings to the hash.

use dht_core::{DhtError, LocalityHash};

/// Index of an attribute within an [`AttributeSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

impl std::fmt::Display for AttrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The globally known set of resource attributes and their value domains.
///
/// The paper assumes attribute types are globally known (CPU speed, free
/// memory, OS, …) with a bounded value domain each, which is what makes
/// locality-preserving hashing well defined.
#[derive(Debug, Clone)]
pub struct AttributeSpace {
    names: Vec<String>,
    domain_min: f64,
    domain_max: f64,
}

impl AttributeSpace {
    /// Create `m` synthetic attributes (`attr-000` …) sharing the value
    /// domain `[min, max]` — the paper's setup gives every attribute `k`
    /// values from one domain.
    ///
    /// # Errors
    /// [`DhtError::InvalidRange`] for an empty or non-finite domain.
    pub fn synthetic(m: usize, min: f64, max: f64) -> Result<Self, DhtError> {
        if !(min.is_finite() && max.is_finite()) || min >= max {
            return Err(DhtError::InvalidRange { low: min, high: max });
        }
        let names = (0..m).map(|i| format!("attr-{i:03}")).collect();
        Ok(Self { names, domain_min: min, domain_max: max })
    }

    /// Create from explicit attribute names with a shared domain.
    pub fn from_names<S: Into<String>>(
        names: impl IntoIterator<Item = S>,
        min: f64,
        max: f64,
    ) -> Result<Self, DhtError> {
        if !(min.is_finite() && max.is_finite()) || min >= max {
            return Err(DhtError::InvalidRange { low: min, high: max });
        }
        Ok(Self {
            names: names.into_iter().map(Into::into).collect(),
            domain_min: min,
            domain_max: max,
        })
    }

    /// Number of attributes (`m`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of an attribute.
    pub fn name(&self, a: AttrId) -> &str {
        &self.names[a.0 as usize]
    }

    /// Look up an attribute by name.
    pub fn by_name(&self, name: &str) -> Result<AttrId, DhtError> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| AttrId(i as u32))
            .ok_or_else(|| DhtError::UnknownAttribute { name: name.to_owned() })
    }

    /// Shared value domain `(min, max)`.
    pub fn domain(&self) -> (f64, f64) {
        (self.domain_min, self.domain_max)
    }

    /// A locality-preserving hash for this domain onto `[0, span)`.
    pub fn lph(&self, span: u64) -> LocalityHash {
        LocalityHash::new(self.domain_min, self.domain_max, span)
            // lint:allow(panic-hygiene): AttributeSpace construction already
            // rejected empty/inverted domains, the only LocalityHash error.
            .expect("domain validated at construction")
    }

    /// Iterator over all attribute ids.
    pub fn ids(&self) -> impl Iterator<Item = AttrId> {
        // lint:allow(cast-truncation): attribute counts are validated
        // small at construction (a grid model has dozens of attributes,
        // nowhere near u32::MAX); AttrId's raw form is u32.
        (0..self.names.len() as u32).map(AttrId)
    }

    /// Clamp a value into the domain.
    pub fn clamp(&self, v: f64) -> f64 {
        v.clamp(self.domain_min, self.domain_max)
    }
}

/// One piece of resource information: `⟨a, π_a, ip_addr⟩`.
///
/// `owner` is the *physical* node that owns (or requests) the resource —
/// the stand-in for the paper's `ip_addr(i)`. Physical node ids are
/// assigned by the experiment harness and shared across all systems under
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceInfo {
    /// Attribute type `a`.
    pub attr: AttrId,
    /// Available value `δπ_a`.
    pub value: f64,
    /// Owning physical node (`ip_addr`).
    pub owner: usize,
}

/// The value constraint of a sub-query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueTarget {
    /// Exact-value (non-range) constraint, e.g. `CPU = 1.8 GHz`.
    Point(f64),
    /// Range constraint `[low, high]`, e.g. `1 ≤ CPU ≤ 1.8`. One-sided
    /// queries (`CPU ≥ 1.8`) use the domain bound for the open side.
    Range {
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
    },
}

impl ValueTarget {
    /// Does `v` satisfy the constraint? Point matches use exact equality —
    /// workload values are generated on a discrete grid.
    pub fn matches(&self, v: f64) -> bool {
        match *self {
            ValueTarget::Point(p) => v == p,
            ValueTarget::Range { low, high } => (low..=high).contains(&v),
        }
    }

    /// The value a lookup routes to (the point, or a range's low end)
    /// and, for a range, the high end its directory walk must cover.
    pub fn bounds(&self) -> (f64, Option<f64>) {
        match *self {
            ValueTarget::Point(v) => (v, None),
            ValueTarget::Range { low, high } => (low, Some(high)),
        }
    }

    /// Is this a range constraint?
    pub fn is_range(&self) -> bool {
        matches!(self, ValueTarget::Range { .. })
    }

    /// Validate bounds.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be rejected too
    pub fn validate(&self) -> Result<(), DhtError> {
        if let ValueTarget::Range { low, high } = *self {
            if !(low <= high) {
                return Err(DhtError::InvalidRange { low, high });
            }
        }
        Ok(())
    }
}

/// One attribute constraint of a multi-attribute query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubQuery {
    /// Attribute the constraint applies to.
    pub attr: AttrId,
    /// The value constraint.
    pub target: ValueTarget,
}

/// A multi-attribute resource query issued by a requesting node.
///
/// Per §III, the query is decomposed into one sub-query per attribute;
/// sub-queries resolve in parallel and the requester joins the result
/// sets on `ip_addr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The per-attribute constraints (all must be satisfied by one owner).
    pub subs: Vec<SubQuery>,
}

impl Query {
    /// Build a query, validating every range.
    pub fn new(subs: Vec<SubQuery>) -> Result<Self, DhtError> {
        for s in &subs {
            s.target.validate()?;
        }
        Ok(Self { subs })
    }

    /// Number of attributes (`m` of an "m-attribute query").
    pub fn arity(&self) -> usize {
        self.subs.len()
    }

    /// True if any sub-query carries a range constraint.
    pub fn has_range(&self) -> bool {
        self.subs.iter().any(|s| s.target.is_range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_space_basics() {
        let s = AttributeSpace::synthetic(200, 1.0, 500.0).unwrap();
        assert_eq!(s.len(), 200);
        assert_eq!(s.name(AttrId(0)), "attr-000");
        assert_eq!(s.name(AttrId(199)), "attr-199");
        assert_eq!(s.domain(), (1.0, 500.0));
        assert_eq!(s.ids().count(), 200);
    }

    #[test]
    fn space_rejects_bad_domain() {
        assert!(AttributeSpace::synthetic(5, 10.0, 10.0).is_err());
        assert!(AttributeSpace::synthetic(5, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn by_name_roundtrip() {
        let s = AttributeSpace::from_names(["cpu", "mem", "os"], 0.0, 1.0).unwrap();
        assert_eq!(s.by_name("mem").unwrap(), AttrId(1));
        assert!(matches!(s.by_name("disk"), Err(DhtError::UnknownAttribute { .. })));
    }

    #[test]
    fn lph_spans_domain() {
        let s = AttributeSpace::synthetic(1, 1.0, 501.0).unwrap();
        let h = s.lph(1000);
        assert_eq!(h.hash(1.0), 0);
        assert_eq!(h.hash(501.0), 999);
    }

    #[test]
    fn point_target_matches_exactly() {
        let t = ValueTarget::Point(42.0);
        assert!(t.matches(42.0));
        assert!(!t.matches(42.5));
        assert!(!t.is_range());
    }

    #[test]
    fn range_target_is_inclusive() {
        let t = ValueTarget::Range { low: 10.0, high: 20.0 };
        assert!(t.matches(10.0));
        assert!(t.matches(20.0));
        assert!(t.matches(15.0));
        assert!(!t.matches(9.99));
        assert!(!t.matches(20.01));
        assert!(t.is_range());
    }

    #[test]
    fn inverted_range_rejected() {
        let q = Query::new(vec![SubQuery {
            attr: AttrId(0),
            target: ValueTarget::Range { low: 5.0, high: 1.0 },
        }]);
        assert!(matches!(q, Err(DhtError::InvalidRange { .. })));
    }

    #[test]
    fn query_arity_and_range_detection() {
        let q = Query::new(vec![
            SubQuery { attr: AttrId(0), target: ValueTarget::Point(1.0) },
            SubQuery { attr: AttrId(1), target: ValueTarget::Range { low: 1.0, high: 2.0 } },
        ])
        .unwrap();
        assert_eq!(q.arity(), 2);
        assert!(q.has_range());
        let q2 = Query::new(vec![SubQuery { attr: AttrId(0), target: ValueTarget::Point(1.0) }])
            .unwrap();
        assert!(!q2.has_range());
    }

    #[test]
    fn clamp_into_domain() {
        let s = AttributeSpace::synthetic(1, 1.0, 500.0).unwrap();
        assert_eq!(s.clamp(-3.0), 1.0);
        assert_eq!(s.clamp(1e6), 500.0);
        assert_eq!(s.clamp(77.0), 77.0);
    }
}
