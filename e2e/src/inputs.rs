//! Seeded inputs. The same seed gives byte-identical inputs; input `i` of
//! a list is generated with seed `seed + i`.

use crate::ServeSizes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smo_circuit::netlist;
use smo_gen::datapath::{pipelined_datapath, DatapathConfig};
use smo_gen::random::{random_circuit, GenConfig};
use std::path::Path;

/// One netlist, with the file name it is written under.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// File name (no directory).
    pub name: String,
    /// Netlist text in the `smo` format.
    pub text: String,
}

/// `count` pipelined datapaths of about `latches` latches; input `i` uses
/// seed `seed + i`.
pub fn datapaths(latches: usize, count: usize, seed: u64) -> Vec<Netlist> {
    let config = DatapathConfig::with_latches(latches);
    (0..count as u64)
        .map(|i| {
            let s = seed.wrapping_add(i);
            Netlist {
                name: format!("dp{latches}-s{s}.ckt"),
                text: netlist::write(&pipelined_datapath(&config, s)),
            }
        })
        .collect()
}

/// The shipped paper netlists, in a fixed order.
pub const PAPER_CIRCUITS: [&str; 6] = [
    "example1",
    "example2",
    "gaas_mips",
    "alu_bypass",
    "appendix_fig1",
    "race_demo",
];

/// Reads the shipped netlists from `<root>/circuits/`.
///
/// # Errors
///
/// A message naming the file that cannot be read.
pub fn paper_circuits(root: &Path) -> Result<Vec<Netlist>, String> {
    PAPER_CIRCUITS
        .iter()
        .map(|name| {
            let path = root.join("circuits").join(format!("{name}.ckt"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok(Netlist {
                name: format!("{name}.ckt"),
                text,
            })
        })
        .collect()
}

/// A `serve-mix` request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqClass {
    /// `solve` of a distinct small random circuit.
    Small,
    /// `solve` or `check` repeated verbatim from the hot set.
    Hot,
    /// `check` of a distinct mid-size datapath.
    Check,
    /// `solve` of a distinct large datapath.
    Large,
    /// `sweep` (8 runs) of a distinct random circuit.
    Sweep,
}

impl ReqClass {
    /// Every class, in reporting order.
    pub const ALL: [ReqClass; 5] = [
        ReqClass::Small,
        ReqClass::Hot,
        ReqClass::Check,
        ReqClass::Large,
        ReqClass::Sweep,
    ];

    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ReqClass::Small => "small",
            ReqClass::Hot => "hot",
            ReqClass::Check => "check",
            ReqClass::Large => "large",
            ReqClass::Sweep => "sweep",
        }
    }
}

/// One block of the mix: 70% small, 10% hot, 10% check, 5% large, 5%
/// sweep. Each block is shuffled, so every class appears in every 20
/// requests and the mix is exact.
const BLOCK: [ReqClass; 20] = {
    use ReqClass::*;
    [
        Small, Small, Small, Small, Small, Small, Small, Small, Small, Small, Small, Small, Small,
        Small, Hot, Hot, Check, Check, Large, Sweep,
    ]
};

/// Requests per shuffled block.
pub const BLOCK_LEN: usize = BLOCK.len();

/// The netlists behind each request class.
#[derive(Debug, Clone, PartialEq)]
pub struct ServePools {
    /// One pool per class, in [`ReqClass::ALL`] order.
    netlists: [Vec<Netlist>; 5],
    /// The same texts JSON-escaped without the closing quote, so a request
    /// line is a concatenation.
    escaped: [Vec<String>; 5],
}

impl ServePools {
    /// Generates every pool; the pools take consecutive seeds in class
    /// order, so no two netlists share one.
    pub fn generate(sizes: &ServeSizes, seed: u64) -> ServePools {
        let mut next = seed;
        let mut take = |n: usize| {
            let first = next;
            next = next.wrapping_add(n as u64);
            first
        };
        let random = |latches: usize, n: usize, first: u64, tag: &str| -> Vec<Netlist> {
            let config = GenConfig {
                latches,
                edges: 2 * latches,
                ..GenConfig::default()
            };
            (0..n as u64)
                .map(|i| {
                    let s = first.wrapping_add(i);
                    Netlist {
                        name: format!("{tag}-s{s}.ckt"),
                        text: netlist::write(&random_circuit(&config, s)),
                    }
                })
                .collect()
        };
        let netlists = [
            random(sizes.small_latches, sizes.pool, take(sizes.pool), "small"),
            random(sizes.small_latches, sizes.hot, take(sizes.hot), "hot"),
            datapaths(sizes.check_latches, sizes.pool, take(sizes.pool)),
            datapaths(sizes.large_latches, sizes.pool, take(sizes.pool)),
            random(sizes.sweep_latches, sizes.pool, take(sizes.pool), "sweep"),
        ];
        let escaped = netlists.each_ref().map(|pool| {
            pool.iter()
                .map(|n| {
                    let mut s = smo_api::json::escape(&n.text);
                    s.pop(); // the closing quote; see `request_line`
                    s
                })
                .collect()
        });
        ServePools { netlists, escaped }
    }

    /// The pool of a class.
    pub fn pool(&self, class: ReqClass) -> &[Netlist] {
        &self.netlists[class as usize]
    }

    /// The newline-terminated request line for `req`. Every class but
    /// `hot` appends the comment `# req <tag>` to its netlist, so the
    /// daemon sees a distinct input (cache miss) with unchanged timing
    /// content.
    pub fn request_line(&self, req: &PlannedRequest, tag: &str) -> String {
        let cmd = match req.class {
            ReqClass::Small | ReqClass::Large => "\"cmd\":\"solve\"",
            ReqClass::Hot if !req.hot_check => "\"cmd\":\"solve\"",
            ReqClass::Hot | ReqClass::Check => "\"cmd\":\"check\"",
            ReqClass::Sweep => "\"cmd\":\"sweep\",\"runs\":8",
        };
        let body = &self.escaped[req.class as usize][req.index];
        let suffix = if req.class == ReqClass::Hot {
            String::new()
        } else {
            format!("# req {tag}\\n")
        };
        format!("{{\"id\":\"{tag}\",{cmd},\"netlist\":{body}{suffix}\"}}\n")
    }
}

/// One request of a client's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedRequest {
    /// Its class.
    pub class: ReqClass,
    /// Index into the class pool.
    pub index: usize,
    /// For `hot` requests: `check` instead of `solve`.
    pub hot_check: bool,
}

/// A client's seeded request sequence (endless, block by block). Hot
/// requests pick a random hot netlist; every other class walks its pool
/// in order from a seeded start, so a run covers each pool evenly.
pub struct Plan {
    rng: StdRng,
    block: Vec<ReqClass>,
    next: [usize; 5],
    pool: usize,
    hot: usize,
}

impl Plan {
    /// The sequence of client `client` under `seed`.
    pub fn new(sizes: &ServeSizes, seed: u64, client: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let next = std::array::from_fn(|_| rng.gen_range(0..sizes.pool.max(1)));
        Plan {
            rng,
            block: Vec::new(),
            next,
            pool: sizes.pool,
            hot: sizes.hot,
        }
    }
}

impl Iterator for Plan {
    type Item = PlannedRequest;

    fn next(&mut self) -> Option<PlannedRequest> {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.block.swap(i, j);
            }
        }
        let class = self.block.pop()?;
        let index = if class == ReqClass::Hot {
            self.rng.gen_range(0..self.hot)
        } else {
            let next = &mut self.next[class as usize];
            let index = *next;
            *next = (index + 1) % self.pool;
            index
        };
        Some(PlannedRequest {
            class,
            index,
            hot_check: self.rng.gen_range(0..2usize) == 1,
        })
    }
}
