//! Span assembly for traced runs: resolve each span's parent, derive
//! self time (span minus the part of it its children cover), and write
//! the spans out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

use crate::hooks::Span;

/// Resolves causal parents in one phase's span list: a hook span of
/// barrier `(job, ordinal)` was caused by the push of that `Barrier`
/// event.
pub fn resolve_parents(spans: &mut [Span]) {
    let pushes: HashMap<(u64, usize), usize> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.ingress.push")
        .filter_map(|(i, s)| s.barrier.map(|b| (b, i)))
        .collect();
    for span in spans.iter_mut() {
        if matches!(
            span.name,
            "core.predict" | "mitigate.decide" | "health.observe"
        ) {
            span.parent = span.barrier.and_then(|b| pushes.get(&b).copied());
        }
    }
}

/// Self time of every span, in ns.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let total = s.end.saturating_sub(s.start);
            let Some(kids) = children.get_mut(&i) else {
                return total;
            };
            // Measure of the union of child intervals clipped to the span.
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            total - covered.min(total)
        })
        .collect()
}

/// Of the pushes that are not barriers (most of a stream), one in this
/// many is written out; metrics use every span.
const PUSH_SAMPLE: usize = 64;

/// Writes `phases` (label, spans, self times) as one tab-separated file.
pub fn write(path: &Path, phases: &[(&str, &[Span], &[u64])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "# serve.ingress.push spans of non-barrier events: 1 in {PUSH_SAMPLE} written"
    )?;
    writeln!(
        out,
        "phase\tid\tname\tstart_ns\tend_ns\tparent\tjob\tordinal\tself_ns"
    )?;
    for (label, spans, selfs) in phases {
        for (i, (s, self_ns)) in spans.iter().zip(selfs.iter()).enumerate() {
            if s.name == "serve.ingress.push" && s.barrier.is_none() && i % PUSH_SAMPLE != 0 {
                continue;
            }
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let (job, ordinal) = s
                .barrier
                .map_or(("-".to_string(), "-".to_string()), |(j, o)| {
                    (j.to_string(), o.to_string())
                });
            writeln!(
                out,
                "{label}\t{i}\t{}\t{}\t{}\t{parent}\t{job}\t{ordinal}\t{self_ns}",
                s.name, s.start, s.end
            )?;
        }
    }
    out.flush()
}
