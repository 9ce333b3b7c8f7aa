//! Seeded request generators: a workload's lines are a pure function of
//! the workload name and the seed.
//!
//! Every workload is an endless sequence of *cycles*. A cycle holds a
//! fixed number of lines of each request kind (so the makeup never
//! depends on the seed) in a seeded order, and the seed draws every
//! request parameter. A run sends lines in sequence until its time is up.

use std::collections::{BTreeMap, BTreeSet};

/// What a line asks for, as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// `evaluate` without fault knobs.
    Evaluate,
    /// `evaluate` with purity/redundancy knobs.
    Fault,
    /// `describe`.
    Describe,
    /// `sweep` (streams `sweep_report`s, then `sweep_done`).
    Sweep,
    /// `wafer`.
    Wafer,
    /// `co_opt`.
    CoOpt,
    /// A deliberately malformed line.
    Bad,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 7] = [
        Kind::Evaluate,
        Kind::Fault,
        Kind::Describe,
        Kind::Sweep,
        Kind::Wafer,
        Kind::CoOpt,
        Kind::Bad,
    ];

    /// The name used in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Evaluate => "evaluate",
            Kind::Fault => "fault",
            Kind::Describe => "describe",
            Kind::Sweep => "sweep",
            Kind::Wafer => "wafer",
            Kind::CoOpt => "coopt",
            Kind::Bad => "bad",
        }
    }

    /// Whether the daemon's warm tier may answer this kind from cache.
    pub fn cacheable(self) -> bool {
        matches!(
            self,
            Kind::Evaluate | Kind::Fault | Kind::Describe | Kind::Wafer
        )
    }
}

/// The answer a line must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// One `report` body.
    Report,
    /// One `describe` body.
    Describe,
    /// This many `sweep_report`s in index order, then `sweep_done`.
    Sweep(u64),
    /// One `wafer_report` body.
    Wafer,
    /// One `co_opt_report` body.
    CoOpt,
    /// One `error` body with this code.
    Error(&'static str),
}

/// One generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    /// The request id (unique within a run; empty on the wire for a
    /// truncated line, whose id cannot be recovered).
    pub id: String,
    /// The exact bytes sent, without the newline.
    pub text: String,
    /// The request kind.
    pub kind: Kind,
    /// The answer it must get.
    pub expect: Expect,
    /// Hash of the request body without the id: two lines with the same
    /// body are the same question, which the warm tier may answer from
    /// cache.
    pub key: u64,
    /// Hash of the processing corner(s) the request names, if any.
    pub corner: Option<u64>,
}

impl Line {
    fn new(id: String, body: String, kind: Kind, expect: Expect, corner: Option<String>) -> Self {
        let text = format!(r#"{{"schema":1,"id":"{id}","body":{body}}}"#);
        Self {
            id,
            text,
            kind,
            expect,
            key: fnv1a(body.as_bytes()),
            corner: corner.map(|c| fnv1a(c.as_bytes())),
        }
    }

    /// The id the daemon answers under: a truncated line's id is lost.
    pub fn wire_id(&self) -> &str {
        if self.expect == Expect::Error("bad_request") {
            ""
        } else {
            &self.id
        }
    }
}

/// A named workload: its concurrency and the makeup of one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name given on the command line.
    pub name: &'static str,
    /// Requests kept outstanding by the closed loop.
    pub outstanding: usize,
    /// Lines of each kind in one cycle.
    pub cycle: &'static [(Kind, usize)],
}

/// The three workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_mix",
        outstanding: 4,
        cycle: &[
            (Kind::Evaluate, 221),
            (Kind::Fault, 27),
            (Kind::Describe, 18),
            (Kind::Sweep, 18),
            (Kind::Wafer, 9),
            (Kind::CoOpt, 4),
            (Kind::Bad, 3),
        ],
    },
    Workload {
        name: "cold_batch",
        outstanding: 1,
        cycle: &[
            (Kind::Evaluate, 12),
            (Kind::Fault, 4),
            (Kind::Sweep, 2),
            (Kind::Wafer, 2),
            (Kind::CoOpt, 1),
            (Kind::Bad, 1),
        ],
    },
    Workload {
        name: "mc_search",
        outstanding: 1,
        cycle: &[
            (Kind::CoOpt, 1),
            (Kind::Evaluate, 7),
            (Kind::Fault, 2),
            (Kind::Describe, 1),
            (Kind::Sweep, 2),
            (Kind::Wafer, 2),
            (Kind::Bad, 1),
        ],
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Lines in one cycle.
    pub fn cycle_len(&self) -> usize {
        self.cycle.iter().map(|(_, n)| n).sum()
    }
}

/// FNV-1a, 64 bits.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// SplitMix64: a tiny, fully specified generator, so the lines of a seed
/// never change with a dependency's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// One element of `items`.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Stream numbers: each use of randomness gets its own stream, so adding
/// a parameter to one kind never shifts the draws of another.
const POOL_STREAM: u64 = 1;
const ORDER_STREAM: u64 = 1 << 20;
const LINE_STREAM: u64 = 1 << 40;

/// The paper's 45-nm case-study base on the fast analytic back-end.
const BASE: &str = r#""corner":"aggressive","library":"nangate45","backend":"gaussian-sum","rho":"paper","fast_design":true"#;

const CORRELATIONS: [&str; 3] = ["none", "growth", "growth+aligned-layout"];

/// Purity values of the fault evaluates (shorts mode).
const PURITIES: [&str; 6] = [
    "0.9999999",
    "0.99999999",
    "0.999999999",
    "0.9999999999",
    "0.99999999999",
    "0.999999999999",
];

/// Grown s-CNT fractions of removal-mode fault evaluates.
const REMOVAL_PURITIES: [&str; 4] = ["0.7", "0.8", "0.9", "0.99"];

/// Technology nodes of the cold workload (nm).
const NODES: [u32; 4] = [45, 32, 22, 16];

/// Redundancy schemes whose compose takes the exact path.
const EXACT_SCHEMES: [&str; 3] = [
    r#""none""#,
    r#""tmr""#,
    r#"{"kind":"spare-units","spares":4,"unit_size":65536}"#,
];

/// Past `EXACT_TERM_LIMIT`: compose takes the Monte-Carlo fallback.
const MC_TILE_SCHEME: &str =
    r#"{"kind":"repairable-tile","tiles":16384,"spare_tiles":8192,"test_coverage":0.999}"#;

/// The density/L_CNT/M_min fields of `examples/wafer/full_wafer_100k.json`.
const WAFER_100K_FIELDS: &str = r#"{"density":{"dist":{"gaussian":{"mean":1.0,"sd":0.08}},"trend":-0.2,"noise_sd":0.06,"correlation_dies":24,"clamp_lo":0.3,"clamp_hi":2.0},"l_cnt_um":{"dist":{"truncated-gaussian":{"mean":200,"sd":30,"lo":120,"hi":280}},"trend":-0.1,"noise_sd":0.04,"correlation_dies":24,"clamp_lo":100,"clamp_hi":300},"m_min":{"truncated-gaussian":{"mean":0.33,"sd":0.02,"lo":0.25,"hi":0.41}}}"#;

/// The study of `examples/coopt/genetic_7axis.json`: halving + genetic
/// over seven axes on the Monte-Carlo back-end.
const GENETIC_7AXIS: &str = r#"{"name":"genetic-7axis","base":{"corner":"aggressive","correlation":"growth+aligned-layout","library":"nangate45","yield_target":0.9,"m_transistors":100000,"backend":{"monte-carlo":{"rel_ci":0.15,"max_trials":8000,"batch":200}},"rho":"paper","fast_design":true},"search":{"corner":["aggressive","ideal-removal","all-semiconducting"],"l_cnt_um":[100,200,400],"node_nm":[45,32],"grid":["dual","single"],"density":[1.0,1.25],"purity":[0.99999999,0.999999999999],"redundancy":["tmr","none"]},"objective":{"w_min_weight":1.0,"area_weight":1.0,"shortfall_weight":10.0},"searcher":{"halving":{"inner":{"genetic":{"population":32,"generations":8,"tournament_k":3,"mutation_rate":0.25}},"rungs":3,"eta":3}}}"#;

/// The per-seed parameter pools of `serve_mix`: small, so most cacheable
/// lines repeat an earlier one.
#[derive(Debug, Clone)]
struct Pools {
    l_cnt_um: [u32; 3],
    seeds: [u32; 4],
}

impl Pools {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, POOL_STREAM);
        // Three distinct correlation lengths from 150..=250 µm.
        let mut lengths: Vec<u32> = (0..11).map(|i| 150 + 10 * i).collect();
        for i in 0..3 {
            let j = i + rng.below(lengths.len() - i);
            lengths.swap(i, j);
        }
        let l_cnt_um = [lengths[0], lengths[1], lengths[2]];
        let mut seeds = [0; 4];
        for s in &mut seeds {
            *s = 1 + rng.below(1 << 20) as u32;
        }
        Self { l_cnt_um, seeds }
    }
}

/// A fresh custom processing corner from a continuous range.
fn fresh_corner(rng: &mut Rng) -> String {
    format!(
        r#"{{"pm":{:.6},"p_rs":{:.6}}}"#,
        rng.uniform(0.28, 0.38),
        rng.uniform(0.22, 0.36)
    )
}

/// The deterministic line generator of one workload and seed.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    pools: Pools,
    next: u64,
    order: Vec<Kind>,
}

impl Generator {
    /// Lines of `workload` under `seed`, from the first.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            pools: Pools::new(seed),
            next: 0,
            order: Vec::new(),
        }
    }

    /// The kind of line `n`: the cycle's kinds in a seeded order.
    fn kind_of(&mut self, n: u64) -> Kind {
        let len = self.workload.cycle_len() as u64;
        let cycle = n / len;
        if n.is_multiple_of(len) || self.order.is_empty() {
            let mut order: Vec<Kind> = self
                .workload
                .cycle
                .iter()
                .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
                .collect();
            let mut rng = Rng::new(self.seed, ORDER_STREAM + cycle);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            self.order = order;
        }
        self.order[(n % len) as usize]
    }

    fn line(&mut self, n: u64) -> Line {
        let kind = self.kind_of(n);
        let mut rng = Rng::new(self.seed, LINE_STREAM + n);
        let id = format!("{}{n}", &self.workload.name[..1]);
        // The line's rank among lines of its kind: categorical parameters
        // (node, correlation, scheme) go round-robin by rank, so every
        // cycle holds the same mix of them and only continuous values and
        // seeds come from the RNG.
        let len = self.workload.cycle_len() as u64;
        let per_cycle = self.order.iter().filter(|k| **k == kind).count() as u64;
        let earlier = self.order[..(n % len) as usize]
            .iter()
            .filter(|k| **k == kind)
            .count() as u64;
        let rank = (n / len) * per_cycle + earlier;
        match self.workload.name {
            _ if kind == Kind::Bad => bad_line(id, rank),
            "serve_mix" => serve_mix_line(&self.pools, id, kind, rank, &mut rng),
            "cold_batch" => cold_batch_line(id, kind, rank, &mut rng),
            _ => mc_search_line(id, kind, rank, &mut rng),
        }
    }
}

impl Iterator for Generator {
    type Item = Line;

    fn next(&mut self) -> Option<Line> {
        let line = self.line(self.next);
        self.next += 1;
        Some(line)
    }
}

/// The three malformed forms, taken in turn (`rank` counts the
/// workload's bad lines so far).
fn bad_line(id: String, rank: u64) -> Line {
    match rank % 3 {
        0 => Line::new(
            id,
            format!(r#"{{"evaluate":{{"spec":{{{BASE},"yeild_target":0.9}}}}}}"#),
            Kind::Bad,
            Expect::Error("unknown_key"),
            None,
        ),
        1 => {
            let mut line = Line::new(
                id.clone(),
                r#""describe""#.into(),
                Kind::Bad,
                Expect::Error("unsupported_schema"),
                None,
            );
            line.text = format!(r#"{{"schema":2,"id":"{id}","body":"describe"}}"#);
            line.key = fnv1a(b"schema2");
            line
        }
        _ => {
            let mut line = Line::new(
                id,
                r#""describe""#.into(),
                Kind::Bad,
                Expect::Error("bad_request"),
                None,
            );
            // Cut inside the body object: the JSON never closes.
            let cut = line.text.len() - 8;
            line.text.truncate(cut);
            line.key = fnv1a(b"truncated");
            line
        }
    }
}

fn serve_mix_line(pools: &Pools, id: String, kind: Kind, rank: u64, rng: &mut Rng) -> Line {
    let correlation = rng.pick(&CORRELATIONS);
    let l_cnt = rng.pick(&pools.l_cnt_um);
    let seed = rng.pick(&pools.seeds);
    let aggressive = Some("aggressive".to_string());
    match kind {
        Kind::Evaluate => Line::new(
            id,
            format!(
                r#"{{"evaluate":{{"spec":{{{BASE},"correlation":"{correlation}","l_cnt_um":{l_cnt}}},"seed":{seed}}}}}"#
            ),
            kind,
            Expect::Report,
            aggressive,
        ),
        Kind::Fault => {
            // A fresh seed makes every fault line a new question for the
            // engine. Removal mode folds impurity into the corner, so the
            // solve costs about what an evaluate does (see README).
            let purity = REMOVAL_PURITIES[rank as usize % REMOVAL_PURITIES.len()];
            let scheme = EXACT_SCHEMES[rank as usize % EXACT_SCHEMES.len()];
            let seed = 1 + rng.below(1 << 30);
            Line::new(
                id,
                format!(
                    r#"{{"evaluate":{{"spec":{{{BASE},"correlation":"{correlation}","l_cnt_um":{l_cnt},"purity":{{"mode":"removal","dist":{purity}}},"redundancy":{scheme}}},"seed":{seed}}}}}"#
                ),
                kind,
                Expect::Report,
                aggressive,
            )
        }
        Kind::Describe => Line::new(id, r#""describe""#.into(), kind, Expect::Describe, None),
        Kind::Sweep => Line::new(
            id,
            format!(
                r#"{{"sweep":{{"grid":{{"name":"mix","defaults":{{{BASE},"yield_target":0.9,"l_cnt_um":{l_cnt}}},"axes":{{"correlation":["none","growth","growth+aligned-layout"]}}}},"seed":{seed}}}}}"#
            ),
            kind,
            Expect::Sweep(3),
            aggressive,
        ),
        Kind::Wafer => Line::new(
            id,
            format!(
                r#"{{"wafer":{{"spec":{{"name":"mix","diameter_dies":8,"base":{{{BASE},"yield_target":0.9,"correlation":"{correlation}"}},"fields":{{"density":{{"dist":{{"gaussian":{{"mean":1.0,"sd":0.05}}}}}}}}}},"seed":{seed}}}}}"#
            ),
            kind,
            Expect::Wafer,
            aggressive,
        ),
        Kind::CoOpt => Line::new(
            id,
            format!(
                r#"{{"co_opt":{{"spec":{{"name":"mix","base":{{{BASE},"yield_target":0.9,"correlation":"growth+aligned-layout"}},"search":{{"l_cnt_um":{{"min":100,"max":200,"steps":2}}}},"objective":{{"w_min_weight":1.0,"area_weight":1.0}},"searcher":"grid"}},"seed":{seed}}}}}"#
            ),
            kind,
            Expect::CoOpt,
            aggressive,
        ),
        Kind::Bad => unreachable!("Generator::line builds bad lines"),
    }
}

/// The convolution back-end on a fresh corner; node and correlation by
/// rank.
fn cold_spec(rng: &mut Rng, rank: u64) -> (String, String) {
    let corner = fresh_corner(rng);
    let correlation = CORRELATIONS[rank as usize % CORRELATIONS.len()];
    let node = NODES[rank as usize % NODES.len()];
    (
        format!(
            r#""corner":{corner},"library":"nangate45","backend":"convolution","rho":"paper","fast_design":true,"correlation":"{correlation}","node_nm":{node}"#
        ),
        corner,
    )
}

fn cold_batch_line(id: String, kind: Kind, rank: u64, rng: &mut Rng) -> Line {
    let seed = 1 + rng.below(1 << 30);
    match kind {
        Kind::Evaluate => {
            let (spec, corner) = cold_spec(rng, rank);
            Line::new(
                id,
                format!(r#"{{"evaluate":{{"spec":{{{spec}}},"seed":{seed}}}}}"#),
                kind,
                Expect::Report,
                Some(corner),
            )
        }
        Kind::Fault => {
            let (spec, corner) = cold_spec(rng, rank);
            let purity = PURITIES[rank as usize % PURITIES.len()];
            let scheme = EXACT_SCHEMES[rank as usize % EXACT_SCHEMES.len()];
            Line::new(
                id,
                format!(
                    r#"{{"evaluate":{{"spec":{{{spec},"purity":{purity},"redundancy":{scheme}}},"seed":{seed}}}}}"#
                ),
                kind,
                Expect::Report,
                Some(corner),
            )
        }
        Kind::Sweep => {
            let corners: Vec<String> = (0..8).map(|_| fresh_corner(rng)).collect();
            let correlation = CORRELATIONS[rank as usize % CORRELATIONS.len()];
            Line::new(
                id,
                format!(
                    r#"{{"sweep":{{"grid":{{"name":"cold","defaults":{{"library":"nangate45","backend":"convolution","rho":"paper","fast_design":true,"correlation":"{correlation}"}},"axes":{{"corner":[{}]}}}},"seed":{seed}}}}}"#,
                    corners.join(",")
                ),
                kind,
                Expect::Sweep(8),
                Some(corners.join(",")),
            )
        }
        Kind::Wafer => {
            let corner = fresh_corner(rng);
            Line::new(
                id,
                format!(
                    r#"{{"wafer":{{"spec":{{"name":"full-wafer-100k","diameter_dies":360,"base":{{"corner":{corner},"correlation":"growth+aligned-layout","library":"nangate45","yield_target":0.9,"backend":"gaussian-sum","rho":"paper","fast_design":true}},"fields":{WAFER_100K_FIELDS}}},"seed":{seed}}}}}"#
                ),
                kind,
                Expect::Wafer,
                Some(corner),
            )
        }
        Kind::CoOpt => {
            let (spec, corner) = cold_spec(rng, rank);
            Line::new(
                id,
                format!(
                    r#"{{"co_opt":{{"spec":{{"name":"cold","base":{{{spec},"yield_target":0.9}},"search":{{"l_cnt_um":{{"min":100,"max":200,"steps":2}}}},"objective":{{"w_min_weight":1.0,"area_weight":1.0}},"searcher":"grid"}},"seed":{seed}}}}}"#
                ),
                kind,
                Expect::CoOpt,
                Some(corner),
            )
        }
        Kind::Describe => Line::new(id, r#""describe""#.into(), kind, Expect::Describe, None),
        Kind::Bad => unreachable!("Generator::line builds bad lines"),
    }
}

fn mc_search_line(id: String, kind: Kind, rank: u64, rng: &mut Rng) -> Line {
    let seed = 1 + rng.below(1 << 30);
    let aggressive = Some("aggressive".to_string());
    match kind {
        Kind::CoOpt => Line::new(
            id,
            format!(r#"{{"co_opt":{{"spec":{GENETIC_7AXIS},"seed":{seed}}}}}"#),
            kind,
            Expect::CoOpt,
            aggressive,
        ),
        Kind::Evaluate => {
            let correlation = CORRELATIONS[rank as usize % CORRELATIONS.len()];
            let l_cnt = 150 + 10 * rng.below(11);
            Line::new(
                id,
                format!(
                    r#"{{"evaluate":{{"spec":{{"corner":"aggressive","library":"nangate45","backend":{{"monte-carlo":{{"rel_ci":0.01}}}},"rho":"paper","fast_design":true,"correlation":"{correlation}","l_cnt_um":{l_cnt}}},"seed":{seed}}}}}"#
                ),
                kind,
                Expect::Report,
                aggressive,
            )
        }
        Kind::Fault => {
            let purity = PURITIES[1];
            Line::new(
                id,
                format!(
                    r#"{{"evaluate":{{"spec":{{{BASE},"correlation":"growth+aligned-layout","purity":{purity},"redundancy":{MC_TILE_SCHEME}}},"seed":{seed}}}}}"#
                ),
                kind,
                Expect::Report,
                aggressive,
            )
        }
        Kind::Describe => Line::new(id, r#""describe""#.into(), kind, Expect::Describe, None),
        Kind::Sweep => {
            let l_cnt = 150 + 10 * rng.below(11);
            Line::new(
                id,
                format!(
                    r#"{{"sweep":{{"grid":{{"name":"mc","defaults":{{"corner":"aggressive","library":"nangate45","backend":{{"monte-carlo":{{"rel_ci":0.05}}}},"rho":"paper","fast_design":true,"l_cnt_um":{l_cnt}}},"axes":{{"correlation":["growth","growth+aligned-layout"]}}}},"seed":{seed}}}}}"#
                ),
                kind,
                Expect::Sweep(2),
                aggressive,
            )
        }
        Kind::Wafer => {
            // A fresh corner: on the shared paper corner the wafer's cost
            // depends on what earlier wafers left in the shard's scenario
            // memo. 180 dies across, so the engine's work outweighs the
            // request's fixed costs (see README).
            let corner = fresh_corner(rng);
            Line::new(
                id,
                format!(
                    r#"{{"wafer":{{"spec":{{"name":"mc","diameter_dies":180,"base":{{"corner":{corner},"correlation":"growth+aligned-layout","library":"nangate45","yield_target":0.9,"backend":"gaussian-sum","rho":"paper","fast_design":true}},"fields":{WAFER_100K_FIELDS}}},"seed":{seed}}}}}"#
                ),
                kind,
                Expect::Wafer,
                Some(corner),
            )
        }
        Kind::Bad => unreachable!("Generator::line builds bad lines"),
    }
}

/// The set-up lines: one `describe`, then one warm-up evaluate per shard
/// (ids picked with the router's own `shard_for`, so each shard gets one).
pub fn setup_lines(shards: usize) -> Vec<Line> {
    let mut lines = vec![Line::new(
        "setup-describe".into(),
        r#""describe""#.into(),
        Kind::Describe,
        Expect::Describe,
        None,
    )];
    let mut candidate = 0u64;
    for shard in 0..shards {
        let id = loop {
            let id = format!("setup-warm{candidate}");
            candidate += 1;
            if cnfet_pipeline::shard_for(&id, shards) == shard {
                break id;
            }
        };
        lines.push(Line::new(
            id,
            format!(
                r#"{{"evaluate":{{"spec":{{{BASE},"correlation":"growth+aligned-layout"}},"seed":1}}}}"#
            ),
            Kind::Evaluate,
            Expect::Report,
            Some("aggressive".into()),
        ));
    }
    lines
}

/// What a run's lines were made of.
#[derive(Debug, Clone, PartialEq)]
pub struct Makeup {
    /// Lines per kind.
    pub counts: BTreeMap<Kind, usize>,
    /// Cacheable lines whose body repeats an earlier line's, over all
    /// cacheable lines.
    pub repeat_share: f64,
    /// Distinct processing corners named.
    pub distinct_corners: usize,
}

/// Summarize a run's lines.
pub fn makeup(lines: &[Line]) -> Makeup {
    let mut counts = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let (mut cacheable, mut repeats) = (0usize, 0usize);
    let mut corners = BTreeSet::new();
    for line in lines {
        *counts.entry(line.kind).or_insert(0) += 1;
        if line.kind.cacheable() {
            cacheable += 1;
            if !seen.insert(line.key) {
                repeats += 1;
            }
        }
        if let Some(corner) = line.corner {
            corners.insert(corner);
        }
    }
    Makeup {
        counts,
        repeat_share: repeats as f64 / cacheable.max(1) as f64,
        distinct_corners: corners.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(name: &str, seed: u64, n: usize) -> Vec<Line> {
        Generator::new(workload(name).unwrap(), seed)
            .take(n)
            .collect()
    }

    #[test]
    fn same_seed_same_bytes() {
        for w in WORKLOADS {
            let n = 3 * w.cycle_len();
            let a: Vec<String> = first(w.name, 7, n).into_iter().map(|l| l.text).collect();
            let b: Vec<String> = first(w.name, 7, n).into_iter().map(|l| l.text).collect();
            assert_eq!(a, b, "{}", w.name);
        }
    }

    #[test]
    fn other_seed_same_kind_counts_different_lines() {
        for w in WORKLOADS {
            let n = 2 * w.cycle_len();
            let a = first(w.name, 1, n);
            let b = first(w.name, 2, n);
            assert_eq!(makeup(&a).counts, makeup(&b).counts, "{}", w.name);
            for (kind, count) in w.cycle {
                assert_eq!(makeup(&a).counts[kind], 2 * count, "{}", w.name);
            }
            let differ = a.iter().zip(&b).filter(|(x, y)| x.text != y.text).count();
            assert!(
                differ > n / 2,
                "{}: only {differ} of {n} lines differ",
                w.name
            );
        }
    }

    #[test]
    fn ids_are_unique_and_lines_parse_unless_bad() {
        for w in WORKLOADS {
            let lines = first(w.name, 3, 2 * w.cycle_len());
            let ids: BTreeSet<&str> = lines.iter().map(|l| l.id.as_str()).collect();
            assert_eq!(ids.len(), lines.len());
            for line in &lines {
                let parsed = cnfet_pipeline::Json::parse(&line.text);
                assert_eq!(
                    parsed.is_err(),
                    line.expect == Expect::Error("bad_request"),
                    "{}",
                    line.text
                );
            }
        }
    }

    #[test]
    fn cold_batch_never_repeats_and_serve_mix_mostly_does() {
        let cold = first("cold_batch", 5, 400);
        assert_eq!(makeup(&cold).repeat_share, 0.0);
        let mix = first("serve_mix", 5, 3000);
        let share = makeup(&mix).repeat_share;
        assert!(
            (0.85..0.97).contains(&share),
            "serve_mix repeat share {share}"
        );
    }

    #[test]
    fn setup_warms_every_shard() {
        let lines = setup_lines(2);
        let shards: BTreeSet<usize> = lines[1..]
            .iter()
            .map(|l| cnfet_pipeline::shard_for(&l.id, 2))
            .collect();
        assert_eq!(shards.len(), 2);
    }
}
