//! Answer checking against `dslog::query::reference::chain` on the
//! uncompressed lineage. Runs outside every timed region.

use crate::inputs::{Corpus, Query};
use dslog::query::reference;
use std::collections::BTreeSet;

pub type Cells = BTreeSet<Vec<i64>>;

/// The reference answer of `q`.
pub fn expected(corpus: &Corpus, q: &Query) -> Cells {
    let start: Cells = q.cells.iter().cloned().collect();
    reference::chain(&start, &corpus.hops(&q.path))
}

/// Cells named by the `"boxes"` array of a net `query` response:
/// `[[[lo,hi],...],...]`, one `[lo,hi]` interval per attribute.
pub fn response_cells(response: &str) -> Option<Cells> {
    let start = response.find("\"boxes\":")? + "\"boxes\":".len();
    let bytes = &response.as_bytes()[start..];
    let mut out = Cells::new();
    let mut depth = 0usize;
    let mut current: Vec<(i64, i64)> = Vec::new();
    let mut nums: Vec<i64> = Vec::new();
    let mut num: Option<i64> = None;
    let mut neg = false;
    for &b in bytes {
        match b {
            b'[' => depth += 1,
            b'0'..=b'9' => num = Some(num.unwrap_or(0) * 10 + i64::from(b - b'0')),
            b'-' => neg = true,
            b',' | b']' => {
                if let Some(n) = num.take() {
                    nums.push(if neg { -n } else { n });
                    neg = false;
                }
                if b == b']' {
                    match depth {
                        3 => {
                            let [lo, hi] = nums[..] else { return None };
                            current.push((lo, hi));
                            nums.clear();
                        }
                        2 => expand(&current, &mut out),
                        1 => return Some(out),
                        _ => return None,
                    }
                    if depth == 2 {
                        current.clear();
                    }
                    depth -= 1;
                }
            }
            _ => return None,
        }
    }
    None
}

fn expand(ivls: &[(i64, i64)], out: &mut Cells) {
    fn rec(ivls: &[(i64, i64)], prefix: &mut Vec<i64>, out: &mut Cells) {
        match ivls.split_first() {
            None => {
                out.insert(prefix.clone());
            }
            Some((&(lo, hi), rest)) => {
                for v in lo..=hi {
                    prefix.push(v);
                    rec(rest, prefix, out);
                    prefix.pop();
                }
            }
        }
    }
    rec(ivls, &mut Vec::with_capacity(ivls.len()), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_boxes_of_a_response() {
        let r = "{\"ok\":true,\"hops\":2,\"cells\":5,\"boxes\":[[[0,1],[3,3]],[[7,9],[-1,-1]]]}";
        let cells = response_cells(r).unwrap();
        let want: Cells = [
            vec![0, 3],
            vec![1, 3],
            vec![7, -1],
            vec![8, -1],
            vec![9, -1],
        ]
        .into_iter()
        .collect();
        assert_eq!(cells, want);
    }

    #[test]
    fn empty_and_malformed_responses() {
        assert_eq!(
            response_cells("{\"ok\":true,\"boxes\":[]}"),
            Some(Cells::new())
        );
        assert_eq!(response_cells("{\"ok\":false,\"error\":\"x\"}"), None);
        assert_eq!(response_cells("{\"ok\":true,\"boxes\":[[[1,2,3]]]}"), None);
    }
}
