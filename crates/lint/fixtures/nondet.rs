// Fixture: wall-clock sources and unordered collections, including
// the fast-hash aliases of them.
use std::collections::{HashMap, HashSet};
use std::time::Instant;

use lauberhorn_sim::hash::FastMap;

fn f() -> u128 {
    let t = Instant::now();
    let mut m: HashMap<u32, u32> = HashMap::new();
    m.insert(1, 2);
    let s: HashSet<u32> = HashSet::new();
    let fast: FastMap<u32, u32> = FastMap::default();
    t.elapsed().as_nanos() + m.len() as u128 + s.len() as u128 + fast.len() as u128
}
