//! Generator determinism: the same seed gives byte-identical inputs, and
//! input `i` uses seed `S + i`, so consecutive inputs differ.

mod common;

use smo_api::{Command, Request};
use smo_e2e::inputs::{datapaths, Plan, ReqClass, ServePools, BLOCK_LEN};
use std::collections::BTreeSet;

#[test]
fn same_seed_gives_identical_bytes() {
    let sizes = common::reduced();
    assert_eq!(datapaths(200, 3, 7), datapaths(200, 3, 7));
    assert_eq!(
        ServePools::generate(&sizes.serve, 7),
        ServePools::generate(&sizes.serve, 7)
    );
    let a: Vec<_> = Plan::new(&sizes.serve, 7, 1).take(200).collect();
    let b: Vec<_> = Plan::new(&sizes.serve, 7, 1).take(200).collect();
    assert_eq!(a, b);
}

#[test]
fn input_i_uses_seed_s_plus_i() {
    let list = datapaths(200, 4, 7);
    assert_eq!(datapaths(200, 1, 9)[0], list[2]);
    let distinct: BTreeSet<&str> = list.iter().map(|n| n.text.as_str()).collect();
    assert_eq!(distinct.len(), list.len(), "consecutive seeds collide");
    assert_ne!(datapaths(200, 4, 8), list, "another seed, other inputs");

    let pools = ServePools::generate(&common::reduced().serve, 7);
    let all: Vec<&str> = ReqClass::ALL
        .iter()
        .flat_map(|&c| pools.pool(c).iter().map(|n| n.text.as_str()))
        .collect();
    let distinct: BTreeSet<&str> = all.iter().copied().collect();
    assert_eq!(distinct.len(), all.len(), "two pool netlists share a seed");
}

#[test]
fn every_block_has_the_exact_mix() {
    let sizes = common::reduced();
    let plan: Vec<_> = Plan::new(&sizes.serve, 3, 0).take(10 * BLOCK_LEN).collect();
    for block in plan.chunks(BLOCK_LEN) {
        let count = |c: ReqClass| block.iter().filter(|r| r.class == c).count();
        assert_eq!(
            [
                count(ReqClass::Small),
                count(ReqClass::Hot),
                count(ReqClass::Check),
                count(ReqClass::Large),
                count(ReqClass::Sweep)
            ],
            [14, 2, 2, 1, 1]
        );
    }
    // The two clients send different sequences.
    let other: Vec<_> = Plan::new(&sizes.serve, 3, 1).take(10 * BLOCK_LEN).collect();
    assert_ne!(plan, other);
    // Outside the hot set, each class walks its pool in order.
    for class in [
        ReqClass::Small,
        ReqClass::Check,
        ReqClass::Large,
        ReqClass::Sweep,
    ] {
        let indices: Vec<usize> = plan
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.index)
            .collect();
        for pair in indices.windows(2) {
            assert_eq!(pair[1], (pair[0] + 1) % sizes.serve.pool, "{class:?}");
        }
    }
}

#[test]
fn request_lines_parse_and_only_hot_requests_repeat() {
    let sizes = common::reduced();
    let pools = ServePools::generate(&sizes.serve, 7);
    let mut netlists = BTreeSet::new();
    for (k, req) in Plan::new(&sizes.serve, 7, 0)
        .take(5 * BLOCK_LEN)
        .enumerate()
    {
        let line = pools.request_line(&req, &format!("c0-{k}"));
        assert!(line.ends_with('\n'));
        let parsed = Request::parse(line.trim_end())
            .unwrap_or_else(|e| panic!("request {k} does not parse: {}", e.message));
        let expected = match (req.class, req.hot_check) {
            (ReqClass::Check, _) | (ReqClass::Hot, true) => "check",
            (ReqClass::Sweep, _) => "sweep",
            _ => "solve",
        };
        assert_eq!(parsed.command.name(), expected);
        if let Command::Sweep { runs, .. } = parsed.command {
            assert_eq!(runs, 8);
        }
        let netlist = parsed.command.netlist().unwrap_or_default().to_string();
        let source = &pools.pool(req.class)[req.index].text;
        assert!(netlist.starts_with(source.as_str()));
        if req.class == ReqClass::Hot {
            assert_eq!(&netlist, source, "hot requests repeat verbatim");
        } else {
            assert!(
                netlists.insert(netlist),
                "request {k} repeats an earlier netlist"
            );
        }
    }
}
