//! The checkpoint liveness test's driver: a machine's checkpoint holds only
//! what the run reads again.  Each top-level field of a machine's bytes (and
//! of its [`Engine`](crate::Engine)'s) is scrambled in a decoded machine; the
//! finished run must then report something else — a statistic, the final
//! state or the core's name.  A field that survives every scramble is dead
//! bytes, and leaves the codec.

use crate::engine::CoreEngine;
use icfp_isa::{Trace, TraceCursor};
use serde::{Deserialize, Serialize};

/// One top-level field of a machine's checkpoint: its name, its bytes, and a
/// change to its decoded value.
pub(crate) struct Field<M> {
    pub name: &'static str,
    pub bytes: fn(&M) -> Vec<u8>,
    pub scramble: fn(&mut M),
}

/// The names of `fields` whose scramble left the finished report of every run
/// as it was unscrambled.  A run is a fresh machine, the trace it runs and
/// the positions to pause it at; each field is scrambled in the machine
/// decoded from each pause's bytes, which must be the fields' bytes in order
/// (the list is the codec).  A scrambled machine goes through its bytes once
/// more before it finishes, so derived state follows the scrambled field.
pub(crate) fn surviving<M>(runs: Vec<(M, Trace, Vec<usize>)>, fields: &[Field<M>]) -> Vec<&'static str>
where
    M: CoreEngine + Serialize + Deserialize + 'static,
{
    let decode = |bytes: &[u8]| Box::new(serde::from_bytes::<M>(bytes).expect("a machine's own bytes decode"));
    let mut live = vec![false; fields.len()];
    for (mut machine, trace, at) in runs {
        let trace = TraceCursor::from_trace(&trace);
        let report = |m: Box<M>| {
            let r = m.finish(&trace);
            (r.state_digest(), r.stats, r.core)
        };
        for at in at {
            assert!(machine.advance(&trace, at), "paused at {at}");
            let bytes = serde::to_bytes(&machine);
            let listed: Vec<u8> = fields.iter().flat_map(|f| (f.bytes)(&machine)).collect();
            assert!(listed == bytes, "the field list is not the codec");
            let reference = report(decode(&bytes));
            for (f, live) in fields.iter().zip(&mut live) {
                let mut m = decode(&bytes);
                (f.scramble)(&mut m);
                *live |= report(decode(&serde::to_bytes(&*m))) != reference;
            }
        }
    }
    fields.iter().zip(live).filter(|(_, live)| !live).map(|(f, _)| f.name).collect()
}

/// The [`Field`]s of the `Engine` a machine of type `$m` holds in `eng`, in
/// the engine's declaration order.
macro_rules! engine_fields {
    ($m:ty) => {{
        use crate::liveness::Field;
        use crate::AdvancePolicy::{AllMisses, L2Only};
        let fields: [Field<$m>; 9] = [
            Field {
                name: "eng.cfg",
                bytes: |m| serde::to_bytes(&m.eng.cfg),
                scramble: |m| {
                    let p = &mut m.eng.cfg.advance_policy;
                    *p = if *p == L2Only { AllMisses } else { L2Only };
                },
            },
            Field {
                name: "eng.fetch",
                bytes: |m| serde::to_bytes(&m.eng.fetch),
                scramble: |m| {
                    m.eng.fetch = icfp_pipeline::FetchEngine::new(&m.eng.cfg.pipeline, m.eng.cfg.predictor.clone())
                },
            },
            Field {
                name: "eng.issue",
                bytes: |m| serde::to_bytes(&m.eng.issue),
                scramble: |m| {
                    let p = &m.eng.cfg.pipeline;
                    m.eng.issue = icfp_pipeline::IssueSchedule::new(p.width, p.int_ports, p.mem_fp_br_ports);
                },
            },
            Field {
                name: "eng.rf",
                bytes: |m| serde::to_bytes(&m.eng.rf),
                scramble: |m| m.eng.rf = icfp_pipeline::TimedRegFile::new(),
            },
            Field {
                name: "eng.mem",
                bytes: |m| serde::to_bytes(&m.eng.mem),
                scramble: |m| m.eng.mem = icfp_mem::MemoryHierarchy::new(m.eng.cfg.mem.clone()),
            },
            Field {
                name: "eng.arch_mem",
                bytes: |m| serde::to_bytes(&m.eng.arch_mem),
                scramble: |m| m.eng.arch_mem = icfp_isa::FunctionalMemory::new(),
            },
            Field {
                name: "eng.stats",
                bytes: |m| serde::to_bytes(&m.eng.stats),
                scramble: |m| m.eng.stats = Default::default(),
            },
            Field {
                name: "eng.frontier",
                bytes: |m| serde::to_bytes(&m.eng.frontier),
                scramble: |m| m.eng.frontier += 1_000,
            },
            Field {
                name: "eng.completion",
                bytes: |m| serde::to_bytes(&m.eng.completion),
                scramble: |m| m.eng.completion += 1_000_000,
            },
        ];
        fields
    }};
}
pub(crate) use engine_fields;
