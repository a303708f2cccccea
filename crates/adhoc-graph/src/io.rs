//! Plain-text network I/O.
//!
//! A deliberately simple, diff-friendly format so topologies can be
//! checked into test fixtures, exchanged with plotting scripts, or fed
//! to the CLI:
//!
//! ```text
//! # comment lines start with '#'
//! nodes <n>
//! pos <id> <x> <y>        (optional, one per node)
//! edge <u> <v>
//! ```

use crate::geom::Point;
use crate::graph::{Graph, NodeId};
use std::io::{BufRead, Write};

/// A parsed network file: a graph and optional positions.
#[derive(Clone, Debug)]
pub struct NetworkFile {
    /// The topology.
    pub graph: Graph,
    /// Node positions if the file carried `pos` lines (all-or-none).
    pub positions: Option<Vec<Point>>,
}

/// Serializes a graph (and optional positions) to the text format.
pub fn write_network<W: Write>(
    w: &mut W,
    graph: &Graph,
    positions: Option<&[Point]>,
) -> std::io::Result<()> {
    writeln!(w, "# khop network file")?;
    writeln!(w, "nodes {}", graph.len())?;
    if let Some(pos) = positions {
        assert_eq!(pos.len(), graph.len(), "one position per node");
        for (i, p) in pos.iter().enumerate() {
            writeln!(w, "pos {i} {} {}", p.x, p.y)?;
        }
    }
    for (u, v) in graph.edges() {
        writeln!(w, "edge {u} {v}")?;
    }
    Ok(())
}

/// Parses the text format. Counts and node IDs are `u32` integers,
/// coordinates are floats, and every line carries exactly its tag's
/// fields.
///
/// # Errors
/// Returns `InvalidData`, naming the line, on malformed or non-integer
/// numbers, missing or trailing fields, a repeated `nodes` line,
/// out-of-range endpoints, duplicate edges, or a partial position set.
pub fn read_network<R: BufRead>(r: &mut R) -> std::io::Result<NetworkFile> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let mut graph: Option<Graph> = None;
    let mut positions: Vec<(usize, Point)> = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| bad(format!("line {}: {msg}", lineno + 1));
        let fields: Vec<&str> = line.split_whitespace().collect();
        let (tag, args) = fields.split_first().expect("nonempty line");
        let names: &[&str] = match *tag {
            "nodes" => &["count"],
            "pos" => &["id", "x", "y"],
            "edge" => &["u", "v"],
            other => return Err(at(format!("unknown tag {other}"))),
        };
        if args.len() != names.len() {
            return Err(at(format!(
                "'{tag}' takes {} ({}), got {}",
                names.len(),
                names.join(" "),
                args.len()
            )));
        }
        let int = |i: usize| {
            args[i]
                .parse::<u32>()
                .map_err(|e| at(format!("{} {:?}: {e}", names[i], args[i])))
        };
        match *tag {
            "nodes" => {
                if graph.is_some() {
                    return Err(at("repeated 'nodes' line".into()));
                }
                graph = Some(Graph::new(int(0)? as usize));
            }
            "pos" => {
                let float = |i: usize| {
                    args[i]
                        .parse::<f64>()
                        .map_err(|e| at(format!("{} {:?}: {e}", names[i], args[i])))
                };
                positions.push((int(0)? as usize, Point::new(float(1)?, float(2)?)));
            }
            _ => {
                let g = graph
                    .as_mut()
                    .ok_or_else(|| at("edge before nodes".into()))?;
                let (u, v) = (int(0)?, int(1)?);
                if u as usize >= g.len() || v as usize >= g.len() || u == v {
                    return Err(at(format!("bad edge {u}-{v}")));
                }
                if g.has_edge(NodeId(u), NodeId(v)) {
                    return Err(at(format!("duplicate edge {u}-{v}")));
                }
                g.add_edge(NodeId(u), NodeId(v));
            }
        }
    }
    let graph = graph.ok_or_else(|| bad("missing 'nodes' line".into()))?;
    let positions = if positions.is_empty() {
        None
    } else {
        if positions.len() != graph.len() {
            return Err(bad(format!(
                "{} positions for {} nodes",
                positions.len(),
                graph.len()
            )));
        }
        let mut out = vec![Point::default(); graph.len()];
        let mut seen = vec![false; graph.len()];
        for (id, p) in positions {
            if id >= out.len() || seen[id] {
                return Err(bad(format!("bad or duplicate position id {id}")));
            }
            out[id] = p;
            seen[id] = true;
        }
        Some(out)
    };
    Ok(NetworkFile { graph, positions })
}

/// Convenience: write to a file path.
pub fn save(
    path: &std::path::Path,
    graph: &Graph,
    positions: Option<&[Point]>,
) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_network(&mut f, graph, positions)
}

/// Convenience: read from a file path.
pub fn load(path: &std::path::Path) -> std::io::Result<NetworkFile> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    read_network(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn round_trip(graph: &Graph, positions: Option<&[Point]>) -> NetworkFile {
        let mut buf = Vec::new();
        write_network(&mut buf, graph, positions).unwrap();
        read_network(&mut std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn round_trip_topology_only() {
        let g = gen::grid(3, 4);
        let parsed = round_trip(&g, None);
        assert!(parsed.positions.is_none());
        assert_eq!(parsed.graph.len(), g.len());
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = parsed.graph.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn round_trip_with_positions() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        let net = gen::geometric(&gen::GeometricConfig::new(30, 100.0, 6.0), &mut rng);
        let parsed = round_trip(&net.graph, Some(&net.positions));
        let pos = parsed.positions.unwrap();
        for (a, b) in net.positions.iter().zip(&pos) {
            assert!((a.x - b.x).abs() < 1e-9);
            assert!((a.y - b.y).abs() < 1e-9);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nnodes 3\n# middle\nedge 0 1\nedge 1 2\n";
        let parsed = read_network(&mut std::io::Cursor::new(text)).unwrap();
        assert_eq!(parsed.graph.edge_count(), 2);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "edge 0 1\n",                    // edge before nodes
            "nodes 2\nedge 0 5\n",           // out of range
            "nodes 2\nedge 0 0\n",           // self loop
            "nodes 2\nedge 0 1\nedge 1 0\n", // duplicate
            "nodes 2\nwat 1\n",              // unknown tag
            "nodes 2\npos 0 1.0 2.0\n",      // partial positions
            "nodes x\n",                     // unparsable count
        ] {
            assert!(
                read_network(&mut std::io::Cursor::new(bad)).is_err(),
                "accepted malformed input: {bad:?}"
            );
        }
    }

    /// Parses `text`, expecting an error that names `line`.
    fn rejected_at(text: &str, line: usize) -> String {
        let err =
            read_network(&mut std::io::Cursor::new(text)).expect_err("malformed input accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.starts_with(&format!("line {line}: ")), "{msg}");
        msg
    }

    #[test]
    fn rejects_negative_ids() {
        rejected_at("nodes 3\nedge -1 2\n", 2);
        rejected_at("nodes 3\npos -1 0.0 0.0\n", 2);
    }

    #[test]
    fn rejects_trailing_fields() {
        let msg = rejected_at("nodes 3\nedge 1 2 99\n", 2);
        assert!(msg.contains("takes 2"), "{msg}");
        rejected_at("nodes 3 4\n", 1);
        rejected_at("nodes 2\npos 0 1.0 2.0 3.0\n", 2);
    }

    #[test]
    fn rejects_a_repeated_nodes_line() {
        let msg = rejected_at("nodes 3\nedge 0 1\n# again\nnodes 3\n", 4);
        assert!(msg.contains("repeated 'nodes'"), "{msg}");
    }

    #[test]
    fn rejects_non_integer_counts_and_ids() {
        for text in [
            "nodes 1e30\n",
            "nodes 2.5\n",
            "nodes 4294967296\n",
            "nodes -3\n",
        ] {
            rejected_at(text, 1);
        }
        rejected_at("nodes 3\nedge 0 1.0\n", 2);
        rejected_at("nodes 3\npos 0.5 1.0 2.0\n", 2);
    }

    #[test]
    fn file_save_load() {
        let g = gen::cycle(5);
        let dir = std::env::temp_dir().join("adhoc-graph-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.txt");
        save(&path, &g, None).unwrap();
        let parsed = load(&path).unwrap();
        assert_eq!(parsed.graph.edge_count(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
