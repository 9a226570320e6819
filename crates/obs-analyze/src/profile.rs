//! Span-tree reconstruction: from a flat [`TraceSnapshot`] to a
//! hierarchical profile with inclusive/self time, call counts, and
//! hot-path extraction.
//!
//! The recorder stores one [`SpanStats`](billcap_obs::SpanStats) per
//! `/`-joined path (`hour/step1/mip`). Because spans nest strictly per
//! thread, a path's total wall time is *inclusive* of everything
//! recorded under it; the profiler recovers the tree from the paths and
//! derives *self* time as inclusive time minus the children's inclusive
//! time.

use billcap_obs::TraceSnapshot;
use std::collections::BTreeMap;

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Full `/`-joined path; the empty string for the synthetic root.
    pub path: String,
    /// Last path segment (`"mip"` for `hour/step1/mip`).
    pub name: String,
    /// Parent node index; `None` only for the root.
    pub parent: Option<usize>,
    /// Child node indices, in path order.
    pub children: Vec<usize>,
    /// Completed spans at this path (0 for synthetic nodes the trace
    /// never recorded directly, including the root).
    pub count: u64,
    /// Total wall time at this path including everything beneath it.
    pub inclusive_ns: u64,
    /// Wall time at this path not attributed to any child.
    pub self_ns: u64,
    /// Shortest recorded span at this path (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest recorded span at this path (0 when `count == 0`).
    pub max_ns: u64,
}

/// A hierarchical profile reconstructed from one trace snapshot.
///
/// Node 0 is a synthetic root whose inclusive time is the sum of the
/// top-level spans, so `profile.root().inclusive_ns` is the traced wall
/// time of the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// All nodes; index 0 is the synthetic root.
    pub nodes: Vec<ProfileNode>,
    /// Counters copied from the snapshot (work aggregates such as
    /// `milp.bnb.nodes` belong with the profile they explain).
    pub counters: BTreeMap<String, u64>,
    /// Orphaned spans reported by the snapshot (non-zero means the
    /// trace, and therefore this profile, is incomplete).
    pub orphans: u64,
}

impl Profile {
    /// Reconstructs the span tree from a snapshot.
    pub fn from_snapshot(snap: &TraceSnapshot) -> Profile {
        let mut profile = Self::from_path_values(
            snap.spans
                .iter()
                .map(|(path, s)| (path.as_str(), s.total_ns)),
            true,
        );
        // Attach per-path call counts and min/max where recorded.
        for (path, s) in &snap.spans {
            if let Some(idx) = profile.index_of(path) {
                let node = &mut profile.nodes[idx];
                node.count = s.count;
                node.min_ns = s.min_ns;
                node.max_ns = s.max_ns;
            }
        }
        profile.counters = snap.counters.clone();
        profile.orphans = snap.orphans;
        profile
    }

    /// Builds a tree from `(path, ns)` pairs. When `inclusive` is true
    /// the values are inclusive times (snapshot `total_ns`); otherwise
    /// they are self times (collapsed-stack values) and inclusive times
    /// are derived bottom-up.
    pub(crate) fn from_path_values<'a, I>(pairs: I, inclusive: bool) -> Profile
    where
        I: IntoIterator<Item = (&'a str, u64)>,
    {
        let mut nodes = vec![ProfileNode {
            path: String::new(),
            name: String::new(),
            parent: None,
            children: Vec::new(),
            count: 0,
            inclusive_ns: 0,
            self_ns: 0,
            min_ns: 0,
            max_ns: 0,
        }];
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        index.insert(String::new(), 0);

        // BTreeMap iteration hands parents before children ("hour" sorts
        // before "hour/..."), but intermediate paths may be absent, so
        // ensure the whole ancestor chain exists for every path.
        let ensure = |nodes: &mut Vec<ProfileNode>,
                      index: &mut BTreeMap<String, usize>,
                      path: &str|
         -> usize {
            if let Some(&idx) = index.get(path) {
                return idx;
            }
            let mut parent = 0usize;
            let mut prefix = String::new();
            for seg in path.split('/') {
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(seg);
                parent = match index.get(&prefix) {
                    Some(&idx) => idx,
                    None => {
                        let idx = nodes.len();
                        nodes.push(ProfileNode {
                            path: prefix.clone(),
                            name: seg.to_string(),
                            parent: Some(parent),
                            children: Vec::new(),
                            count: 0,
                            inclusive_ns: 0,
                            self_ns: 0,
                            min_ns: 0,
                            max_ns: 0,
                        });
                        nodes[parent].children.push(idx);
                        index.insert(prefix.clone(), idx);
                        idx
                    }
                };
            }
            parent
        };

        for (path, ns) in pairs {
            if path.is_empty() {
                continue;
            }
            let idx = ensure(&mut nodes, &mut index, path);
            if inclusive {
                nodes[idx].inclusive_ns = ns;
            } else {
                nodes[idx].self_ns = ns;
            }
        }

        let mut profile = Profile {
            nodes,
            counters: BTreeMap::new(),
            orphans: 0,
        };
        profile.finish(inclusive);
        profile
    }

    /// Bottom-up pass deriving the missing one of inclusive/self time.
    /// Children always have larger indices than synthetic ancestors is
    /// *not* guaranteed (a recorded parent precedes its children, but a
    /// synthetic ancestor is created on first descendant), so walk in
    /// post-order explicitly.
    fn finish(&mut self, inclusive: bool) {
        let order = self.post_order();
        for idx in order {
            let child_sum: u64 = self.nodes[idx]
                .children
                .iter()
                .map(|&c| self.nodes[c].inclusive_ns)
                .sum();
            if inclusive {
                // Synthetic nodes (count 0, never recorded) cover their
                // children; recorded nodes keep their measured time.
                if self.nodes[idx].inclusive_ns == 0 {
                    self.nodes[idx].inclusive_ns = child_sum;
                }
                self.nodes[idx].self_ns = self.nodes[idx].inclusive_ns.saturating_sub(child_sum);
            } else {
                self.nodes[idx].inclusive_ns = self.nodes[idx].self_ns + child_sum;
            }
        }
    }

    /// Node indices in post-order (children before parents).
    fn post_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(0usize, false)];
        while let Some((idx, expanded)) = stack.pop() {
            if expanded {
                order.push(idx);
            } else {
                stack.push((idx, true));
                for &c in &self.nodes[idx].children {
                    stack.push((c, false));
                }
            }
        }
        order
    }

    /// The synthetic root node.
    pub fn root(&self) -> &ProfileNode {
        &self.nodes[0]
    }

    /// Index of the node at `path`, if the trace recorded it (or an
    /// ancestor chain created it).
    fn index_of(&self, path: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.path == path)
    }

    /// The node at `path`, if present.
    pub fn node(&self, path: &str) -> Option<&ProfileNode> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// The critical path: from the root, repeatedly descend into the
    /// child with the largest inclusive time (ties broken by path, so
    /// the result is deterministic). The root itself is not included.
    pub fn hot_path(&self) -> Vec<&ProfileNode> {
        let mut out = Vec::new();
        let mut idx = 0usize;
        while let Some(&next) = self.nodes[idx].children.iter().max_by(|&&a, &&b| {
            let (na, nb) = (&self.nodes[a], &self.nodes[b]);
            na.inclusive_ns
                .cmp(&nb.inclusive_ns)
                .then_with(|| nb.path.cmp(&na.path))
        }) {
            out.push(&self.nodes[next]);
            idx = next;
        }
        out
    }

    /// The `n` non-root nodes with the largest self time, descending
    /// (ties broken by path).
    pub fn top_self(&self, n: usize) -> Vec<&ProfileNode> {
        let mut all: Vec<&ProfileNode> = self.nodes[1..].iter().collect();
        all.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
        all.truncate(n);
        all
    }

    /// Renders the profile as an indented tree table (path, count,
    /// inclusive, self, share of the root's inclusive time).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let root_ns = self.root().inclusive_ns.max(1) as f64;
        out.push_str(&format!(
            "{:<40} {:>8} {:>10} {:>10} {:>7}\n",
            "span", "count", "incl", "self", "incl%"
        ));
        self.render_node(0, 0, root_ns, &mut out);
        out
    }

    fn render_node(&self, idx: usize, depth: usize, root_ns: f64, out: &mut String) {
        if idx != 0 {
            let n = &self.nodes[idx];
            let label = format!("{}{}", "  ".repeat(depth - 1), n.name);
            out.push_str(&format!(
                "{:<40} {:>8} {:>10} {:>10} {:>6.1}%\n",
                label,
                n.count,
                crate::fmt_ns(n.inclusive_ns),
                crate::fmt_ns(n.self_ns),
                100.0 * n.inclusive_ns as f64 / root_ns,
            ));
        }
        let mut children = self.nodes[idx].children.clone();
        children.sort_by(|&a, &b| {
            self.nodes[b]
                .inclusive_ns
                .cmp(&self.nodes[a].inclusive_ns)
                .then_with(|| self.nodes[a].path.cmp(&self.nodes[b].path))
        });
        for c in children {
            self.render_node(c, depth + 1, root_ns, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use billcap_obs::Recorder;

    fn sleepless_snapshot() -> TraceSnapshot {
        // Build a deterministic snapshot by hand so timing doesn't
        // matter: hour(100) -> step1(60) -> mip(25), hour -> step2(30).
        let mut snap = TraceSnapshot::default();
        let stats = |count: u64, total: u64| billcap_obs::SpanStats {
            count,
            total_ns: total,
            min_ns: total / count.max(1),
            max_ns: total / count.max(1),
        };
        snap.spans.insert("hour".into(), stats(2, 100));
        snap.spans.insert("hour/step1".into(), stats(2, 60));
        snap.spans.insert("hour/step1/mip".into(), stats(3, 25));
        snap.spans.insert("hour/step2".into(), stats(2, 30));
        snap.counters.insert("milp.bnb.nodes".into(), 7);
        snap
    }

    #[test]
    fn inclusive_self_and_root_accounting() {
        let p = Profile::from_snapshot(&sleepless_snapshot());
        assert_eq!(p.root().inclusive_ns, 100);
        let hour = p.node("hour").unwrap();
        assert_eq!(hour.inclusive_ns, 100);
        assert_eq!(hour.self_ns, 100 - 60 - 30);
        assert_eq!(hour.count, 2);
        let step1 = p.node("hour/step1").unwrap();
        assert_eq!(step1.self_ns, 60 - 25);
        let mip = p.node("hour/step1/mip").unwrap();
        assert_eq!(mip.inclusive_ns, 25);
        assert_eq!(mip.self_ns, 25);
        assert_eq!(p.counters["milp.bnb.nodes"], 7);
    }

    #[test]
    fn hot_path_follows_max_inclusive_child() {
        let p = Profile::from_snapshot(&sleepless_snapshot());
        let hot: Vec<&str> = p.hot_path().iter().map(|n| n.path.as_str()).collect();
        assert_eq!(hot, ["hour", "hour/step1", "hour/step1/mip"]);
    }

    #[test]
    fn top_self_orders_by_self_time() {
        let p = Profile::from_snapshot(&sleepless_snapshot());
        let top: Vec<(&str, u64)> = p
            .top_self(2)
            .iter()
            .map(|n| (n.path.as_str(), n.self_ns))
            .collect();
        assert_eq!(top, [("hour/step1", 35), ("hour/step2", 30)]);
    }

    #[test]
    fn missing_intermediate_paths_are_synthesized() {
        let mut snap = TraceSnapshot::default();
        snap.spans.insert(
            "a/b/c".into(),
            billcap_obs::SpanStats {
                count: 1,
                total_ns: 10,
                min_ns: 10,
                max_ns: 10,
            },
        );
        let p = Profile::from_snapshot(&snap);
        let b = p.node("a/b").unwrap();
        assert_eq!(b.count, 0);
        assert_eq!(b.inclusive_ns, 10);
        assert_eq!(b.self_ns, 0);
        assert_eq!(p.root().inclusive_ns, 10);
    }

    #[test]
    fn real_recorder_trace_profiles() {
        let r = Recorder::new();
        for _ in 0..3 {
            let _h = r.span("hour");
            let _s = r.span("step1");
        }
        let p = Profile::from_snapshot(&r.snapshot());
        assert_eq!(p.node("hour").unwrap().count, 3);
        assert_eq!(p.node("hour/step1").unwrap().count, 3);
        // Children are nested inside parents, so inclusive ordering holds.
        assert!(p.node("hour").unwrap().inclusive_ns >= p.node("hour/step1").unwrap().inclusive_ns);
        assert_eq!(p.root().inclusive_ns, p.node("hour").unwrap().inclusive_ns);
        let table = p.to_table();
        assert!(table.contains("hour"));
        assert!(table.contains("step1"));
    }
}
