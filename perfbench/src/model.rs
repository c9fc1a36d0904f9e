//! The benchmark's own copy of the live subscriptions and a brute-force
//! evaluation of all four query kinds over it.
//!
//! The comparisons are written out here on raw bounds instead of going
//! through `acx_geom`'s predicates, so a fault in those predicates shows
//! as a mismatch instead of being shared by the index and its check.

use acx_geom::{HyperRect, ObjectId, SpatialQuery};

const ABSENT: u32 = u32::MAX;

/// Dense id → rectangle table, one column of lower and one of upper
/// bounds per dimension, in the order of `ids`.
#[derive(Debug, Clone)]
pub struct Model {
    ids: Vec<u32>,
    lo: Vec<Vec<f32>>,
    hi: Vec<Vec<f32>>,
    /// `slot[id]` = position of `id` in `ids`, or `ABSENT`.
    slot: Vec<u32>,
}

/// Flattens a rectangle into (lo, hi) pairs.
pub fn flat(rect: &HyperRect) -> Vec<f32> {
    rect.intervals()
        .iter()
        .flat_map(|iv| [iv.lo(), iv.hi()])
        .collect()
}

impl Model {
    /// An empty table of `dims`-dimensional objects.
    pub fn new(dims: usize) -> Self {
        Self {
            ids: Vec::new(),
            lo: vec![Vec::new(); dims],
            hi: vec![Vec::new(); dims],
            slot: Vec::new(),
        }
    }

    /// Live objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    fn position(&self, id: u32) -> Option<usize> {
        match self.slot.get(id as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// The (lo, hi) pairs of `id`, if live.
    pub fn get(&self, id: u32) -> Option<Vec<f32>> {
        let s = self.position(id)?;
        Some(
            self.lo
                .iter()
                .zip(&self.hi)
                .flat_map(|(l, h)| [l[s], h[s]])
                .collect(),
        )
    }

    /// Adds `id`; returns `false` when it is already live.
    pub fn insert(&mut self, id: u32, rect: &HyperRect) -> bool {
        if self.position(id).is_some() {
            return false;
        }
        if self.slot.len() <= id as usize {
            self.slot.resize(id as usize + 1, ABSENT);
        }
        self.slot[id as usize] = self.ids.len() as u32;
        self.ids.push(id);
        for (d, iv) in rect.intervals().iter().enumerate() {
            self.lo[d].push(iv.lo());
            self.hi[d].push(iv.hi());
        }
        true
    }

    /// Replaces the bounds of `id`; returns `false` when it is not live.
    pub fn update(&mut self, id: u32, rect: &HyperRect) -> bool {
        let Some(s) = self.position(id) else {
            return false;
        };
        for (d, iv) in rect.intervals().iter().enumerate() {
            self.lo[d][s] = iv.lo();
            self.hi[d][s] = iv.hi();
        }
        true
    }

    /// Drops `id`; returns `false` when it is not live.
    pub fn remove(&mut self, id: u32) -> bool {
        let Some(s) = self.position(id) else {
            return false;
        };
        self.ids.swap_remove(s);
        for column in self.lo.iter_mut().chain(self.hi.iter_mut()) {
            column.swap_remove(s);
        }
        if let Some(&moved) = self.ids.get(s) {
            self.slot[moved as usize] = s as u32;
        }
        self.slot[id as usize] = ABSENT;
        true
    }

    /// Every live id with its bounds, ascending by id.
    pub fn entries(&self) -> Vec<(u32, Vec<f32>)> {
        let mut ids = self.ids.clone();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| (id, self.get(id).expect("listed ids are live")))
            .collect()
    }

    /// Ids of the live objects `query` selects, ascending.
    pub fn answer(&self, query: &SpatialQuery) -> Vec<u32> {
        self.answer_all(&[query])
            .pop()
            .expect("one answer per query")
    }

    /// The answers to `queries` over the current objects, each ascending.
    /// Every object is tested in every dimension, a column at a time; the
    /// columns are walked in blocks of `BLOCK` rows, each block tested
    /// against every query while it is in cache, so a batch reads the
    /// table from memory once instead of once per query.
    pub fn answer_all(&self, queries: &[&SpatialQuery]) -> Vec<Vec<u32>> {
        let tests: Vec<Vec<(f32, f32, Shape)>> = queries.iter().map(|q| tests(q)).collect();
        let mut out = vec![Vec::new(); queries.len()];
        let mut keep = [0u8; BLOCK];
        for start in (0..self.ids.len()).step_by(BLOCK) {
            let end = (start + BLOCK).min(self.ids.len());
            let keep = &mut keep[..end - start];
            for (test, ids) in tests.iter().zip(&mut out) {
                keep.fill(1);
                for ((&(a, b, shape), lo), hi) in test.iter().zip(&self.lo).zip(&self.hi) {
                    let rows = keep.iter_mut().zip(&lo[start..end]).zip(&hi[start..end]);
                    match shape {
                        Shape::Covers => {
                            rows.for_each(|((k, &l), &h)| *k &= u8::from(l <= a) & u8::from(b <= h))
                        }
                        Shape::Inside => {
                            rows.for_each(|((k, &l), &h)| *k &= u8::from(a <= l) & u8::from(h <= b))
                        }
                    }
                }
                ids.extend(
                    keep.iter()
                        .zip(&self.ids[start..end])
                        .filter(|(&k, _)| k == 1)
                        .map(|(_, &id)| id),
                );
            }
        }
        for ids in &mut out {
            ids.sort_unstable();
        }
        out
    }
}

/// Rows of the table tested together against a batch of queries: 16
/// columns of 2 048 `f32` are 128 KiB, well inside the per-core L2.
const BLOCK: usize = 2048;

/// Per dimension (a, b, shape): `Covers` keeps lo <= a && b <= hi,
/// `Inside` keeps a <= lo && hi <= b.
fn tests(query: &SpatialQuery) -> Vec<(f32, f32, Shape)> {
    let bounds = |w: &HyperRect| -> Vec<(f32, f32)> {
        w.intervals().iter().map(|iv| (iv.lo(), iv.hi())).collect()
    };
    match query {
        SpatialQuery::Intersection(w) => bounds(w)
            .into_iter()
            .map(|(ql, qh)| (qh, ql, Shape::Covers))
            .collect(),
        SpatialQuery::Enclosure(w) => bounds(w)
            .into_iter()
            .map(|(ql, qh)| (ql, qh, Shape::Covers))
            .collect(),
        SpatialQuery::Containment(w) => bounds(w)
            .into_iter()
            .map(|(ql, qh)| (ql, qh, Shape::Inside))
            .collect(),
        SpatialQuery::PointEnclosing(p) => p.iter().map(|&v| (v, v, Shape::Covers)).collect(),
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Covers,
    Inside,
}

/// Sorts an index answer into the model's order.
pub fn sorted_ids(matches: &[ObjectId]) -> Vec<u32> {
    let mut ids: Vec<u32> = matches.iter().map(|m| m.0).collect();
    ids.sort_unstable();
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(lo: &[f32], hi: &[f32]) -> HyperRect {
        HyperRect::from_bounds(lo, hi).unwrap()
    }

    fn two_d() -> Model {
        let mut m = Model::new(2);
        assert!(m.insert(1, &rect(&[0.1, 0.1], &[0.3, 0.3])));
        assert!(m.insert(2, &rect(&[0.2, 0.2], &[0.8, 0.8])));
        assert!(m.insert(3, &rect(&[0.5, 0.0], &[0.5, 1.0])));
        m
    }

    #[test]
    fn all_four_kinds_with_closed_bounds() {
        let m = two_d();
        let w = rect(&[0.3, 0.3], &[0.5, 0.5]);
        // Touching bounds count: object 1 ends at 0.3, object 3 sits at 0.5.
        assert_eq!(
            m.answer(&SpatialQuery::intersection(w.clone())),
            vec![1, 2, 3]
        );
        assert_eq!(
            m.answer(&SpatialQuery::containment(rect(&[0.1, 0.1], &[0.3, 0.3]))),
            vec![1]
        );
        assert_eq!(m.answer(&SpatialQuery::enclosure(w)), vec![2]);
        assert_eq!(
            m.answer(&SpatialQuery::point_enclosing(vec![0.5, 0.25])),
            vec![2, 3]
        );
        assert_eq!(
            m.answer(&SpatialQuery::point_enclosing(vec![0.9, 0.9])),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn agrees_with_geometry_predicates_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let draw = |rng: &mut StdRng| {
            let (mut lo, mut hi) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                let a: f32 = rng.gen_range(0.0..=1.0);
                let b: f32 = rng.gen_range(0.0..=1.0);
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            rect(&lo, &hi)
        };
        let mut m = Model::new(3);
        // More objects than one block, so blocks and their edges are covered.
        let objects: Vec<HyperRect> = (0..2 * BLOCK + 100).map(|_| draw(&mut rng)).collect();
        for (i, o) in objects.iter().enumerate() {
            m.insert(i as u32, o);
        }
        let (mut queries, mut expected_all) = (Vec::new(), Vec::new());
        for _ in 0..50 {
            let w = draw(&mut rng);
            let p: Vec<f32> = (0..3).map(|_| rng.gen_range(0.0..=1.0)).collect();
            for q in [
                SpatialQuery::intersection(w.clone()),
                SpatialQuery::containment(w.clone()),
                SpatialQuery::enclosure(w.clone()),
                SpatialQuery::point_enclosing(p),
            ] {
                let expected: Vec<u32> = (0..objects.len() as u32)
                    .filter(|&i| q.matches_rect(&objects[i as usize]))
                    .collect();
                assert_eq!(m.answer(&q), expected, "{q:?}");
                queries.push(q);
                expected_all.push(expected);
            }
        }
        let batch: Vec<&SpatialQuery> = queries.iter().collect();
        assert_eq!(m.answer_all(&batch), expected_all);
    }

    #[test]
    fn mutations_keep_the_table_dense_and_consistent() {
        let mut m = two_d();
        assert!(!m.insert(2, &rect(&[0.0, 0.0], &[1.0, 1.0])));
        assert!(m.remove(1));
        assert!(!m.remove(1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(3), Some(vec![0.5, 0.5, 0.0, 1.0]));
        assert!(m.update(3, &rect(&[0.0, 0.0], &[0.1, 0.1])));
        assert!(!m.update(9, &rect(&[0.0, 0.0], &[0.1, 0.1])));
        assert_eq!(
            m.answer(&SpatialQuery::point_enclosing(vec![0.05, 0.05])),
            vec![3]
        );
        assert!(m.insert(7, &rect(&[0.0, 0.0], &[1.0, 1.0])));
        let ids: Vec<u32> = m.entries().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 3, 7]);
        assert_eq!(sorted_ids(&[ObjectId(7), ObjectId(2)]), vec![2, 7]);
    }
}
