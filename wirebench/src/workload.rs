//! The four workloads: what each federation holds, which query texts it
//! is asked, and in which order. Everything here is a pure function of
//! `(workload, seed)` — the daemons only ever see the generated inputs.

use xqd::xmark::{auctions_document, people_document, XmarkConfig};
use xqd::Strategy;
use xqd_prng::Rng;

/// What a workload's federation holds and asks.
#[derive(Clone, Copy)]
enum Shape {
    /// A people document per peer, a pool of single-person lookups.
    Lookups,
    /// The paper's Section VII pair (people on peer1, auctions on peer2)
    /// and its benchmark query.
    JoinPair,
    /// A people partition per peer and one aggregate per partition.
    Partitions,
}

pub struct Workload {
    pub name: &'static str,
    shape: Shape,
    /// Closed-loop client threads, each with its own coordinator and
    /// transport. One everywhere: the driver, the daemons and a second
    /// client on two shared cores measured where the scheduler had put
    /// them (see `fleet::Placement`).
    pub clients: usize,
    /// Whether the daemons get cores of their own: only where they could
    /// work at the same time. Everything else runs on one core.
    pub spread_peers: bool,
    pub strategy: Strategy,
    /// `wire_bytes_per_query` is counted over the first this-many queries
    /// of the fixed sequence, so it repeats exactly for a seed.
    pub byte_prefix: usize,
    /// Entities per generated document; fixed, so a seed changes content
    /// and never scale.
    people: usize,
    auctions: usize,
    payload_words: usize,
}

/// Distinct query texts in `point_lookup`: half of the 64-entry plan cache
/// the socket coordinator is due to inherit, so a cache would always hit.
pub const LOOKUP_POOL: usize = 32;

/// Positions in the fixed query sequence before it wraps.
const SEQUENCE_LEN: usize = 4096;

/// Generator streams `join_pair` tries per document before it gives up;
/// one in eight fits.
const STREAMS: u64 = 4096;

/// The whole numbers that directly follow each occurrence of `marker`.
fn numbers_after<'a>(xml: &'a str, marker: &'a str) -> impl Iterator<Item = usize> + 'a {
    xml.split(marker).skip(1).filter_map(|rest| {
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..digits].parse().ok()
    })
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_lookup",
        shape: Shape::Lookups,
        clients: 1,
        spread_peers: false,
        strategy: Strategy::ByProjection,
        byte_prefix: 2 * LOOKUP_POOL,
        people: 48,
        auctions: 1,
        payload_words: 30,
    },
    Workload {
        name: "xmark_semijoin",
        shape: Shape::JoinPair,
        clients: 1,
        spread_peers: false,
        strategy: Strategy::ByProjection,
        byte_prefix: 4,
        people: 400,
        auctions: 800,
        payload_words: 30,
    },
    Workload {
        name: "bulk_ship",
        shape: Shape::JoinPair,
        clients: 1,
        spread_peers: false,
        strategy: Strategy::DataShipping,
        byte_prefix: 4,
        people: 400,
        auctions: 800,
        payload_words: 30,
    },
    Workload {
        name: "scatter_fanout",
        shape: Shape::Partitions,
        clients: 1,
        spread_peers: true,
        strategy: Strategy::ByProjection,
        byte_prefix: 4,
        people: 5000,
        auctions: 1,
        payload_words: 30,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct Doc {
    pub peer: &'static str,
    pub name: &'static str,
    pub xml: String,
}

impl Doc {
    pub fn uri(&self) -> String {
        format!("xrpc://{}/{}", self.peer, self.name)
    }
}

pub struct Inputs {
    pub docs: Vec<Doc>,
    /// Distinct query texts.
    pub pool: Vec<String>,
    /// Indices into `pool`; clients walk it cyclically.
    pub sequence: Vec<usize>,
}

pub const PEERS: [&str; 2] = ["peer1", "peer2"];

impl Workload {
    fn xmark(&self, seed: u64, stream: u64) -> XmarkConfig {
        XmarkConfig {
            people: self.people,
            open_auctions: self.auctions,
            // distinct generator streams per (seed, document)
            seed: seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream),
            payload_words: self.payload_words,
        }
    }

    pub fn inputs(&self, seed: u64) -> Inputs {
        match self.shape {
            Shape::Lookups => self.lookup_inputs(seed),
            Shape::Partitions => Inputs {
                docs: vec![
                    Doc {
                        peer: PEERS[0],
                        name: "xmk.xml",
                        xml: people_document(&self.xmark(seed, 1)),
                    },
                    Doc {
                        peer: PEERS[1],
                        name: "xmk.xml",
                        xml: people_document(&self.xmark(seed, 2)),
                    },
                ],
                pool: vec![xqd_bench::scaleout_query(2)],
                sequence: vec![0],
            },
            Shape::JoinPair => {
                let (people, auctions) = self.join_pair(seed);
                Inputs {
                    docs: vec![
                        Doc {
                            peer: PEERS[0],
                            name: "xmk.xml",
                            xml: people,
                        },
                        Doc {
                            peer: PEERS[1],
                            name: "xmk.auctions.xml",
                            xml: auctions,
                        },
                    ],
                    pool: vec![xqd_bench::BENCHMARK_QUERY.to_string()],
                    sequence: vec![0],
                }
            }
        }
    }

    /// The people and auctions documents of a seed, chosen so that every
    /// seed's pair asks the same work of the join: the generator draws ages
    /// and sellers at random, so left alone the persons under 40 come out
    /// at 142 ± 10 of 400 and the auctions they sell at 284 ± 20 of 800,
    /// and the join's time and bytes follow (ten seeds spread `qps` by a
    /// quarter). Generator streams of the seed are tried in order until
    /// one has the expected count of persons under 40 and one has the
    /// expected count of auctions sold by them, each to within 0.75 %.
    fn join_pair(&self, seed: u64) -> (String, String) {
        // ages are uniform in 18..80
        let young_target = (self.people * 22 + 31) / 62;
        let sold_target = (self.auctions * young_target + self.people / 2) / self.people;
        let close = |n: usize, target: usize| n.abs_diff(target) * 400 <= target * 3;
        let (people, young) = (0..STREAMS)
            .map(|stream| people_document(&self.xmark(seed, stream)))
            .find_map(|xml| {
                let young: Vec<bool> = numbers_after(&xml, "<age>").map(|age| age < 40).collect();
                let n = young.iter().filter(|y| **y).count();
                close(n, young_target).then_some((xml, young))
            })
            .expect("a people stream with the expected share of persons under 40");
        let auctions = (0..STREAMS)
            .map(|stream| auctions_document(&self.xmark(seed, stream)))
            .find(|xml| {
                let sold = numbers_after(xml, "<seller person=\"person")
                    .filter(|seller| young[*seller])
                    .count();
                close(sold, sold_target)
            })
            .expect("an auctions stream with the expected share of young sellers");
        (people, auctions)
    }

    /// Selective single-person lookups: `LOOKUP_POOL` distinct texts, even
    /// pool entries against peer1 and odd ones against peer2, so walking
    /// the sequence alternates peers. The sequence opens with the whole
    /// pool once (every distinct text is oracle-checked in the byte-count
    /// prefix), then draws from it by the seed.
    fn lookup_inputs(&self, seed: u64) -> Inputs {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5EED_10CC);
        let docs: Vec<Doc> = PEERS
            .iter()
            .enumerate()
            .map(|(k, peer)| Doc {
                peer,
                name: "xmk.xml",
                xml: people_document(&self.xmark(seed, k as u64 + 1)),
            })
            .collect();
        let per_peer = LOOKUP_POOL / PEERS.len();
        // a seeded choice of distinct persons per peer (partial Fisher–Yates)
        let picks: Vec<Vec<usize>> = PEERS
            .iter()
            .map(|_| {
                let mut ids: Vec<usize> = (0..self.people).collect();
                for i in 0..per_peer {
                    let j = rng.gen_range_usize(i..ids.len());
                    ids.swap(i, j);
                }
                ids.truncate(per_peer);
                ids
            })
            .collect();
        let pool: Vec<String> = (0..LOOKUP_POOL)
            .map(|i| {
                let (peer, person) = (PEERS[i % PEERS.len()], picks[i % PEERS.len()][i / PEERS.len()]);
                format!(
                    "for $p in doc(\"xrpc://{peer}/xmk.xml\")/child::site/child::people/child::person \
                     return if ($p/attribute::id = \"person{person}\") then $p/child::name else ()"
                )
            })
            .collect();
        let sequence: Vec<usize> = (0..SEQUENCE_LEN)
            .map(|i| {
                if i < LOOKUP_POOL {
                    i
                } else {
                    PEERS.len() * rng.gen_range_usize(0..per_peer) + i % PEERS.len()
                }
            })
            .collect();
        Inputs {
            docs,
            pool,
            sequence,
        }
    }
}

impl Inputs {
    /// The query at `position` of the cyclic sequence.
    pub fn query(&self, position: usize) -> (usize, &str) {
        let q = self.sequence[position % self.sequence.len()];
        (q, &self.pool[q])
    }

    /// Where client `t` of `clients` starts: evenly spaced, so every client
    /// walks consecutive positions (and therefore alternates peers), and
    /// shifted by `t` so two clients start on different peers.
    pub fn start_of(&self, t: usize, clients: usize) -> usize {
        t * (self.sequence.len() / clients) + t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &WORKLOADS {
            let (a, b, c) = (w.inputs(7), w.inputs(7), w.inputs(8));
            assert_eq!(a.pool, b.pool, "{}", w.name);
            assert_eq!(a.sequence, b.sequence, "{}", w.name);
            for (x, y) in a.docs.iter().zip(&b.docs) {
                assert_eq!(x.xml, y.xml, "{}", w.name);
            }
            assert!(
                a.docs.iter().zip(&c.docs).any(|(x, y)| x.xml != y.xml),
                "{}: the seed must change the documents",
                w.name
            );
        }
        let w = by_name("point_lookup").unwrap();
        assert_ne!(w.inputs(7).sequence, w.inputs(8).sequence);
        assert_ne!(w.inputs(7).pool, w.inputs(8).pool);
    }

    #[test]
    fn every_seed_asks_the_same_work_of_the_join() {
        let w = by_name("xmark_semijoin").unwrap();
        for seed in [1, 2, 77, 501, 506] {
            let (people, auctions) = w.join_pair(seed);
            let young: Vec<bool> = numbers_after(&people, "<age>").map(|a| a < 40).collect();
            assert_eq!(young.len(), 400);
            let n = young.iter().filter(|y| **y).count();
            assert!(
                (141..=143).contains(&n),
                "seed {seed}: {n} persons under 40"
            );
            let sold = numbers_after(&auctions, "<seller person=\"person")
                .filter(|seller| young[*seller])
                .count();
            assert!((282..=286).contains(&sold), "seed {seed}: {sold} auctions");
        }
    }

    #[test]
    fn lookup_sequence_opens_with_the_pool_and_alternates_peers() {
        let inputs = by_name("point_lookup").unwrap().inputs(3);
        assert_eq!(inputs.pool.len(), LOOKUP_POOL);
        let mut distinct = inputs.pool.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), LOOKUP_POOL, "pool texts must be distinct");
        assert_eq!(
            &inputs.sequence[..LOOKUP_POOL],
            &(0..LOOKUP_POOL).collect::<Vec<_>>()[..]
        );
        for (i, q) in inputs.sequence.iter().enumerate() {
            assert_eq!(q % 2, i % 2, "position {i} must hit peer{}", i % 2 + 1);
            assert!(inputs.pool[*q].contains(PEERS[i % 2]));
        }
        // the two clients start half a sequence apart, on different peers
        assert_eq!(inputs.start_of(0, 2) % 2, 0);
        assert_eq!(inputs.start_of(1, 2) % 2, 1);
    }
}
