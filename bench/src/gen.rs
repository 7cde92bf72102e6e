//! Seeded input generators. Every workload's inputs are a pure
//! function of `(seed, ordinal)`, so the same seed gives the same
//! operation stream and any seed gives the same *amount* of work: the
//! seed permutes names, prices and visiting order, never counts.

/// SplitMix64: small, fast, and fully specified here so a toolchain or
/// shim upgrade cannot change the streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift: unbiased enough for workload shaping.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Stateless mix of `(seed, n)` for per-ordinal draws.
pub fn mix(seed: u64, n: u64) -> u64 {
    Rng::new(seed ^ n.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

#[cfg(test)]
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// A seeded permutation of `0..n` plus unique seeded names, shared by
/// the workloads that visit a fixed population round-robin.
fn names_and_order(rng: &mut Rng, prefix: char, n: usize) -> (Vec<String>, Vec<u32>) {
    // Unique by construction: the index is part of the name; the random
    // suffix makes hash-bucket placement depend on the seed.
    let names = (0..n)
        .map(|i| format!("{prefix}{i:05}{:03}", rng.below(1000)))
        .collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    (names, order)
}

// ---------------------------------------------------------------------
// saa_wire: the Securities Analyst's Assistant.
// ---------------------------------------------------------------------

/// One ticker quote.
#[derive(Debug, Clone, PartialEq)]
pub struct Quote {
    /// Index into [`SaaPlan::symbols`].
    pub stock: usize,
    pub price: f64,
    /// Whether this quote crosses the stock's buy threshold upwards,
    /// i.e. fires its `buy-*` rule.
    pub buys: bool,
}

/// Population and quote stream of the SAA workload.
pub struct SaaPlan {
    pub symbols: Vec<String>,
    /// Buy threshold per stock; `None` for stocks nobody watches.
    pub threshold: Vec<Option<f64>>,
    order: Vec<u32>,
    /// Rank of each watched stock among the watched, in visiting order:
    /// alternating ranks start on opposite sides of their threshold, so
    /// every pass over the population fires exactly half the buy rules.
    rank: Vec<u32>,
}

impl SaaPlan {
    pub fn new(seed: u64, stocks: usize, watched: usize) -> SaaPlan {
        let mut rng = Rng::new(seed);
        let (symbols, order) = names_and_order(&mut rng, 'S', stocks);
        let mut pick: Vec<u32> = (0..stocks as u32).collect();
        rng.shuffle(&mut pick);
        let mut threshold = vec![None; stocks];
        for &i in &pick[..watched] {
            threshold[i as usize] = Some(20.0 + rng.below(8000) as f64 / 100.0);
        }
        let mut rank = vec![0u32; stocks];
        let mut next = 0;
        for &i in &order {
            if threshold[i as usize].is_some() {
                rank[i as usize] = next;
                next += 1;
            }
        }
        SaaPlan {
            symbols,
            threshold,
            order,
            rank,
        }
    }

    /// Price every stock is loaded with: just below its threshold.
    pub fn initial_price(&self, stock: usize) -> f64 {
        self.threshold[stock].map_or(50.0, |t| t - 1.0)
    }

    /// The `n`-th quote of the stream.
    pub fn quote(&self, n: u64) -> Quote {
        let len = self.order.len() as u64;
        let stock = self.order[(n % len) as usize] as usize;
        let pass = n / len;
        let wiggle = (n % 97) as f64 / 1000.0;
        match self.threshold[stock] {
            Some(t) => {
                let up = (pass + u64::from(self.rank[stock])) & 1 == 0;
                let price = if up {
                    t + 0.25 + wiggle
                } else {
                    t - 0.25 - wiggle
                };
                Quote {
                    stock,
                    price,
                    buys: up,
                }
            }
            None => Quote {
                stock,
                price: 50.0 + wiggle + (pass % 7) as f64,
                buys: false,
            },
        }
    }

    /// Hash of the first `ops` operations (generator determinism tests).
    #[cfg(test)]
    pub fn stream_hash(&self, ops: u64) -> u64 {
        (0..ops).fold(FNV_INIT, |h, n| {
            let q = self.quote(n);
            let h = fnv(h, self.symbols[q.stock].as_bytes());
            fnv(h, &q.price.to_bits().to_le_bytes())
        })
    }
}

// ---------------------------------------------------------------------
// rule_wall: many guarded rules on one class.
// ---------------------------------------------------------------------

/// Rules per symbol. The discrimination network keeps exactly these as
/// candidates for an update of the symbol.
pub const WALL_RULES_PER_SYMBOL: usize = 8;
/// Distinct `level` values; rule `j` of a symbol holds when
/// `new.level = j % WALL_LEVELS`, so two of the eight candidates hold.
pub const WALL_LEVELS: i64 = 4;

pub struct WallPlan {
    pub symbols: Vec<String>,
    order: Vec<u32>,
    seed: u64,
}

impl WallPlan {
    pub fn new(seed: u64, rules: usize) -> WallPlan {
        let mut rng = Rng::new(seed);
        let (symbols, order) = names_and_order(&mut rng, 'W', rules / WALL_RULES_PER_SYMBOL);
        WallPlan {
            symbols,
            order,
            seed,
        }
    }

    /// The `n`-th update: which symbol's row, and the level written.
    pub fn update(&self, n: u64) -> (usize, i64) {
        let row = self.order[(n % self.order.len() as u64) as usize] as usize;
        (row, (mix(self.seed, n) % WALL_LEVELS as u64) as i64)
    }

    /// Hash of the first `ops` operations (generator determinism tests).
    #[cfg(test)]
    pub fn stream_hash(&self, ops: u64) -> u64 {
        (0..ops).fold(FNV_INIT, |h, n| {
            let (row, level) = self.update(n);
            fnv(fnv(h, self.symbols[row].as_bytes()), &level.to_le_bytes())
        })
    }
}

// ---------------------------------------------------------------------
// store_rw: one writer, one reader, one durable class.
// ---------------------------------------------------------------------

/// Rows sharing one indexed `bucket` value: the size of a range read.
pub const STORE_BUCKET_ROWS: usize = 100;
/// Point lookups per read transaction.
pub const STORE_POINT_READS: usize = 4;

pub struct StorePlan {
    pub rows: usize,
    seed: u64,
}

impl StorePlan {
    pub fn new(seed: u64, rows: usize) -> StorePlan {
        StorePlan { rows, seed }
    }

    /// 960 bytes of row payload, different for every write.
    pub fn payload(&self, n: u64) -> String {
        let x = mix(self.seed ^ 0x5157, n);
        format!(
            "{x:016x}{:016x}{x:016x}{:016x}{x:016x}{n:016x}",
            !x,
            x.rotate_left(17)
        )
        .repeat(10)
    }

    /// The `n`-th write: which row.
    pub fn write(&self, n: u64) -> usize {
        (mix(self.seed, n) % self.rows as u64) as usize
    }

    /// The `m`-th read transaction: one bucket, then point lookups.
    pub fn read(&self, m: u64) -> (i64, [usize; STORE_POINT_READS]) {
        let mut rng = Rng::new(mix(self.seed ^ 0xEAD5, m));
        let bucket = rng.below((self.rows / STORE_BUCKET_ROWS) as u64) as i64;
        let mut points = [0usize; STORE_POINT_READS];
        for p in &mut points {
            *p = rng.below(self.rows as u64) as usize;
        }
        (bucket, points)
    }

    /// Hash of the first `ops` operations (generator determinism tests).
    #[cfg(test)]
    pub fn stream_hash(&self, ops: u64) -> u64 {
        (0..ops).fold(FNV_INIT, |h, n| {
            let h = fnv(h, &self.write(n).to_le_bytes());
            let (b, p) = self.read(n);
            fnv(
                fnv(h, self.payload(n).as_bytes()),
                &(b as usize + p[0]).to_le_bytes(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(
            SaaPlan::new(7, 500, 200).stream_hash(5_000),
            SaaPlan::new(7, 500, 200).stream_hash(5_000)
        );
        assert_ne!(
            SaaPlan::new(7, 500, 200).stream_hash(5_000),
            SaaPlan::new(8, 500, 200).stream_hash(5_000)
        );
        assert_eq!(
            WallPlan::new(7, 800).stream_hash(5_000),
            WallPlan::new(7, 800).stream_hash(5_000)
        );
        assert_ne!(
            WallPlan::new(7, 800).stream_hash(5_000),
            WallPlan::new(8, 800).stream_hash(5_000)
        );
        assert_eq!(
            StorePlan::new(7, 1000).stream_hash(5_000),
            StorePlan::new(7, 1000).stream_hash(5_000)
        );
        assert_ne!(
            StorePlan::new(7, 1000).stream_hash(5_000),
            StorePlan::new(8, 1000).stream_hash(5_000)
        );
    }

    #[test]
    fn every_pass_fires_exactly_half_the_buy_rules_whatever_the_seed() {
        for seed in [1, 2, 99] {
            let plan = SaaPlan::new(seed, 500, 200);
            for pass in 0..4u64 {
                let buys = (pass * 500..(pass + 1) * 500)
                    .filter(|&n| plan.quote(n).buys)
                    .count();
                assert_eq!(buys, 100, "seed {seed} pass {pass}");
            }
        }
    }

    #[test]
    fn a_buy_always_crosses_its_threshold_from_below() {
        let plan = SaaPlan::new(3, 100, 40);
        let mut price: Vec<f64> = (0..100).map(|i| plan.initial_price(i)).collect();
        for n in 0..1_000 {
            let q = plan.quote(n);
            if let Some(t) = plan.threshold[q.stock] {
                assert_eq!(q.buys, q.price >= t && price[q.stock] < t, "quote {n}");
            }
            price[q.stock] = q.price;
        }
    }

    #[test]
    fn wall_levels_stay_in_range_and_rows_are_visited_evenly() {
        let plan = WallPlan::new(5, 800);
        let mut visits = vec![0u32; plan.symbols.len()];
        for n in 0..1_000 {
            let (row, level) = plan.update(n);
            assert!((0..WALL_LEVELS).contains(&level));
            visits[row] += 1;
        }
        assert!(visits.iter().all(|&v| v == 10));
    }
}
