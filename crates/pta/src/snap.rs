//! Binary (de)serialization of a solved [`Pta`] for warm-start snapshots.
//!
//! The solved result is a pure function of the program and [`PtaConfig`],
//! so a snapshot stores it verbatim: abstract objects, the call graph, the
//! collapsed points-to tables (bitsets as raw 64-bit words), call targets,
//! and solver statistics. Hash maps are written with *sorted* keys so the
//! encoding is canonical, while per-key vectors keep the solver's order —
//! a decoded `Pta` answers every query with exactly the bytes a fresh solve
//! would.
//!
//! The section also carries the per-method [constraint-stream hashes]
//! (`crate::incr::stream_hash`) of every reachable non-native method.
//! Restorers cross-check them against the restored program: a mismatch
//! means the snapshot and program sections disagree (e.g. a partially
//! stale file) and the restore must fall back to a cold solve.
//!
//! [constraint-stream hashes]: crate::incr::stream_hash

use thinslice_ir::snap::{decode_stmt_ref, decode_type, encode_stmt_ref, encode_type};
use thinslice_ir::{FieldId, MethodId, Program, StmtRef, Var};
use thinslice_util::{BitSet, ByteReader, ByteWriter, CodecError, FxHashMap, IdxVec};

use crate::callgraph::{CallGraph, CgNode};
use crate::heap::{AbstractObject, AllocSite, ObjId, ObjKind};
use crate::incr::stream_hash;
use crate::solver::SolveStats;
use crate::{Pta, PtaConfig};

/// Encodes `pta` into `w`.
pub fn encode_pta(pta: &Pta, w: &mut ByteWriter) {
    encode_config(&pta.config, w);
    w.vusize(pta.objects.len());
    for obj in pta.objects.iter() {
        match obj.site {
            AllocSite::Stmt(s) => {
                w.u8(0);
                encode_stmt_ref(w, s);
            }
            AllocSite::NativeRet(s) => {
                w.u8(1);
                encode_stmt_ref(w, s);
            }
        }
        match &obj.kind {
            ObjKind::Class(c) => {
                w.u8(0);
                w.vu64(u64::from(c.raw()));
            }
            ObjKind::Array(elem) => {
                w.u8(1);
                encode_type(w, elem);
            }
        }
        match obj.ctx {
            None => w.bool(false),
            Some(o) => {
                w.bool(true);
                w.vu64(u64::from(o.raw()));
            }
        }
    }
    pta.callgraph.encode(w);
    w.vusize(pta.constraint_edges);
    w.vu64(pta.solve_stats.delta_rounds);
    w.vu64(pta.solve_stats.worklist_pushes);
    w.vusize(pta.solve_stats.max_worklist_depth);
    w.vu64(pta.solve_stats.delta_objects);
    w.vu64(pta.solve_stats.meter_checks);

    sorted_map(w, &pta.var_pts, |w, (m, v)| {
        w.vu64(u64::from(m.raw()));
        w.vu64(u64::from(v.raw()));
    });
    sorted_map(w, &pta.inst_var_pts, |w, (n, v)| {
        w.vu64(u64::from(n.raw()));
        w.vu64(u64::from(v.raw()));
    });
    sorted_map(w, &pta.field_pts, |w, (o, f)| {
        w.vu64(u64::from(o.raw()));
        w.vu64(u64::from(f.raw()));
    });
    sorted_map(w, &pta.array_pts, |w, o| w.vu64(u64::from(o.raw())));
    sorted_map(w, &pta.static_pts, |w, f| w.vu64(u64::from(f.raw())));

    let mut ct_keys: Vec<&StmtRef> = pta.call_targets.keys().collect();
    ct_keys.sort();
    w.vusize(ct_keys.len());
    for key in ct_keys {
        encode_stmt_ref(w, *key);
        let targets = &pta.call_targets[key];
        w.vusize(targets.len());
        for t in targets {
            w.vu64(u64::from(t.raw()));
        }
    }
    let mut inst_keys: Vec<&MethodId> = pta.instances.keys().collect();
    inst_keys.sort();
    w.vusize(inst_keys.len());
    for key in inst_keys {
        w.vu64(u64::from(key.raw()));
        let nodes = &pta.instances[key];
        w.vusize(nodes.len());
        for n in nodes {
            w.vu64(u64::from(n.raw()));
        }
    }
}

/// Decodes a `Pta` written by [`encode_pta`].
pub fn decode_pta(r: &mut ByteReader) -> Result<Pta, CodecError> {
    let config = decode_config(r)?;
    let n_objects = r.vusize()?;
    let mut objects: IdxVec<ObjId, AbstractObject> =
        IdxVec::with_capacity(n_objects.min(r.remaining()));
    for _ in 0..n_objects {
        let site = match r.u8()? {
            0 => AllocSite::Stmt(decode_stmt_ref(r)?),
            1 => AllocSite::NativeRet(decode_stmt_ref(r)?),
            _ => return Err(CodecError::Malformed("alloc site")),
        };
        let kind = match r.u8()? {
            0 => ObjKind::Class(r.vidx::<thinslice_ir::ClassId>()?),
            1 => ObjKind::Array(decode_type(r)?),
            _ => return Err(CodecError::Malformed("object kind")),
        };
        let ctx = if r.bool()? {
            Some(r.vidx::<ObjId>()?)
        } else {
            None
        };
        objects.push(AbstractObject { site, kind, ctx });
    }
    let callgraph = CallGraph::decode(r)?;
    let constraint_edges = r.vusize()?;
    let solve_stats = SolveStats {
        delta_rounds: r.vu64()?,
        worklist_pushes: r.vu64()?,
        max_worklist_depth: r.vusize()?,
        delta_objects: r.vu64()?,
        meter_checks: r.vu64()?,
    };
    let var_pts = read_map(r, |r| Ok((r.vidx::<MethodId>()?, r.vidx::<Var>()?)))?;
    let inst_var_pts = read_map(r, |r| Ok((r.vidx::<CgNode>()?, r.vidx::<Var>()?)))?;
    let field_pts = read_map(r, |r| Ok((r.vidx::<ObjId>()?, r.vidx::<FieldId>()?)))?;
    let array_pts = read_map(r, |r| r.vidx::<ObjId>())?;
    let static_pts = read_map(r, |r| r.vidx::<FieldId>())?;
    let n_call_targets = r.vusize()?;
    let mut call_targets: FxHashMap<StmtRef, Vec<MethodId>> =
        FxHashMap::with_capacity_and_hasher(n_call_targets.min(r.remaining()), Default::default());
    for _ in 0..n_call_targets {
        let key = decode_stmt_ref(r)?;
        let n = r.vusize()?;
        let mut targets = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            targets.push(r.vidx::<MethodId>()?);
        }
        call_targets.insert(key, targets);
    }
    let n_instances = r.vusize()?;
    let mut instances: FxHashMap<MethodId, Vec<CgNode>> =
        FxHashMap::with_capacity_and_hasher(n_instances.min(r.remaining()), Default::default());
    for _ in 0..n_instances {
        let key = r.vidx::<MethodId>()?;
        let n = r.vusize()?;
        let mut nodes = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            nodes.push(r.vidx::<CgNode>()?);
        }
        instances.insert(key, nodes);
    }
    Ok(Pta {
        config,
        objects,
        callgraph,
        constraint_edges,
        solve_stats,
        var_pts,
        inst_var_pts,
        field_pts,
        array_pts,
        static_pts,
        call_targets,
        instances,
        empty: BitSet::new(),
    })
}

/// Constraint-stream hashes of every reachable non-native method, sorted by
/// method id — the integrity cross-check between a snapshot's solved result
/// and its program section.
pub fn reachable_stream_hashes(pta: &Pta, program: &Program) -> Vec<(MethodId, u64)> {
    let mut out: Vec<(MethodId, u64)> = pta
        .reachable_methods()
        .into_iter()
        .filter(|&m| program.methods[m].body.is_some())
        .map(|m| (m, stream_hash(program, m)))
        .collect();
    out.sort_unstable_by_key(|(m, _)| *m);
    out
}

/// Encodes the output of [`reachable_stream_hashes`].
pub fn encode_stream_hashes(hashes: &[(MethodId, u64)], w: &mut ByteWriter) {
    w.vusize(hashes.len());
    for (m, h) in hashes {
        w.vu64(u64::from(m.raw()));
        w.u64_le(*h);
    }
}

/// Decodes stream hashes written by [`encode_stream_hashes`].
pub fn decode_stream_hashes(r: &mut ByteReader) -> Result<Vec<(MethodId, u64)>, CodecError> {
    let mut out = Vec::new();
    for _ in 0..r.vusize()? {
        let m = r.vidx::<MethodId>()?;
        let h = r.u64_le()?;
        out.push((m, h));
    }
    Ok(out)
}

/// Encodes a [`PtaConfig`] canonically; two configs are compatible exactly
/// when their encodings are byte-equal (the restore-time check a
/// warm-start performs before adopting a snapshot's solved result).
pub fn encode_config(config: &PtaConfig, w: &mut ByteWriter) {
    w.bool(config.object_sensitive_containers);
    w.vusize(config.container_classes.len());
    for c in &config.container_classes {
        w.str(c);
    }
    w.vu64(u64::from(config.max_heap_ctx_depth));
    w.bool(config.cast_filtering);
}

/// Decodes a config written by [`encode_config`].
pub fn decode_config(r: &mut ByteReader) -> Result<PtaConfig, CodecError> {
    let object_sensitive_containers = r.bool()?;
    let mut container_classes = Vec::new();
    for _ in 0..r.vusize()? {
        container_classes.push(r.str()?.to_string());
    }
    let max_heap_ctx_depth = r.vu64()? as u32;
    let cast_filtering = r.bool()?;
    Ok(PtaConfig {
        object_sensitive_containers,
        container_classes,
        max_heap_ctx_depth,
        cast_filtering,
    })
}

fn sorted_map<K: Ord + Copy + std::hash::Hash>(
    w: &mut ByteWriter,
    map: &FxHashMap<K, BitSet<ObjId>>,
    key: impl Fn(&mut ByteWriter, K),
) {
    let mut keys: Vec<&K> = map.keys().collect();
    keys.sort();
    w.vusize(keys.len());
    for k in keys {
        key(w, *k);
        w.u64s_le(map[k].as_words());
    }
}

fn read_map<K: std::hash::Hash + Eq>(
    r: &mut ByteReader,
    key: impl Fn(&mut ByteReader) -> Result<K, CodecError>,
) -> Result<FxHashMap<K, BitSet<ObjId>>, CodecError> {
    let n = r.vusize()?;
    let mut map = FxHashMap::with_capacity_and_hasher(n.min(r.remaining()), Default::default());
    for _ in 0..n {
        let k = key(r)?;
        map.insert(k, BitSet::from_words(r.u64s_le()?));
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinslice_ir::compile;

    const SRC: &str = r#"class Box { Object item; void put(Object o) { this.item = o; } Object take() { return this.item; } }
    class Main { static void main() {
        Vector v = new Vector();
        v.add("a");
        v.add("b");
        Box b = new Box();
        b.put(v.get(0));
        int[] xs = new int[2];
        Object[] os = new Object[2];
        os[0] = b.take();
        print((String) os[0]);
    } }"#;

    fn solved() -> (Program, Pta) {
        let program = compile(&[("t.mj", SRC)]).unwrap();
        let pta = Pta::analyze(&program, PtaConfig::default());
        (program, pta)
    }

    fn roundtrip(pta: &Pta) -> Pta {
        let mut w = ByteWriter::new();
        encode_pta(pta, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_pta(&mut r).unwrap();
        assert!(r.is_at_end(), "decoder must consume every byte");
        back
    }

    #[test]
    fn solved_pta_roundtrips_with_identical_queries() {
        let (program, pta) = solved();
        let back = roundtrip(&pta);
        assert_eq!(format!("{:?}", back.objects), format!("{:?}", pta.objects));
        assert_eq!(back.constraint_edges, pta.constraint_edges);
        assert_eq!(back.solve_stats, pta.solve_stats);
        assert_eq!(back.callgraph.node_count(), pta.callgraph.node_count());
        assert_eq!(back.callgraph.edge_count(), pta.callgraph.edge_count());
        // Every query surface answers identically (including vector order).
        for (m, method) in program.methods.iter_enumerated() {
            let Some(body) = &method.body else { continue };
            for (v, _) in body.vars.iter_enumerated() {
                assert_eq!(
                    back.points_to(m, v).iter().collect::<Vec<_>>(),
                    pta.points_to(m, v).iter().collect::<Vec<_>>()
                );
            }
            assert_eq!(back.instances_of(m), pta.instances_of(m));
        }
        for s in program.all_stmts() {
            assert_eq!(back.targets_of(s), pta.targets_of(s));
        }
        for (n, _, _) in pta.callgraph.iter_nodes() {
            assert_eq!(back.callgraph.node(n), pta.callgraph.node(n));
            assert_eq!(back.callgraph.callers(n), pta.callgraph.callers(n));
        }
        for o in pta.objects.indices() {
            assert_eq!(
                back.array_points_to(o).iter().collect::<Vec<_>>(),
                pta.array_points_to(o).iter().collect::<Vec<_>>()
            );
            for f in program.fields.indices() {
                assert_eq!(
                    back.field_points_to(o, f).iter().collect::<Vec<_>>(),
                    pta.field_points_to(o, f).iter().collect::<Vec<_>>()
                );
            }
        }
        for f in program.fields.indices() {
            assert_eq!(
                back.static_points_to(f).iter().collect::<Vec<_>>(),
                pta.static_points_to(f).iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn encoding_is_deterministic_across_solves() {
        let encode = || {
            let (_, pta) = solved();
            let mut w = ByteWriter::new();
            encode_pta(&pta, &mut w);
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
    }

    #[test]
    fn stream_hashes_roundtrip_and_detect_program_drift() {
        let (program, pta) = solved();
        let hashes = reachable_stream_hashes(&pta, &program);
        assert!(!hashes.is_empty());
        let mut w = ByteWriter::new();
        encode_stream_hashes(&hashes, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_stream_hashes(&mut r).unwrap(), hashes);
        // A pointer-relevant edit shifts at least one reachable hash.
        let edited = compile(&[("t.mj", &SRC.replace("v.add(\"b\");", ""))]).unwrap();
        let drifted = reachable_stream_hashes(&pta, &edited);
        assert_ne!(hashes, drifted);
    }

    #[test]
    fn config_roundtrips() {
        let cfg = PtaConfig::without_object_sensitivity();
        let mut w = ByteWriter::new();
        encode_config(&cfg, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_config(&mut r).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"));
    }
}
