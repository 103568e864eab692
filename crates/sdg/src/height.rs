//! Dependence heights ([`FrozenSdg::heights`]) by one iterative Tarjan
//! pass. The DFS path is an explicit stack, so no dependence chain,
//! however long, can overflow a thread's stack. Tarjan completes a
//! component only after every component it reaches, so each component's
//! height, 1 + the highest component it depends on (0 if none), is known
//! when it is popped.

use crate::csr::FrozenSdg;
use crate::node::SliceKind;
use thinslice_util::Idx;

/// Marks a node not yet discovered (`index`) or a component not yet
/// complete (`height`).
const UNSEEN: u32 = u32::MAX;

/// Every node's height in `g` for `kind`, indexed by node id.
pub(crate) fn heights(g: &FrozenSdg, kind: SliceKind) -> Vec<u32> {
    let n = g.kinds.len();
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut height = vec![UNSEEN; n];
    // Discovered nodes whose component is not complete, in discovery order.
    let mut stack: Vec<u32> = Vec::new();
    // The DFS path: each node with the position of its next edge.
    let mut path: Vec<(u32, u32)> = Vec::new();
    let mut discovered = 0u32;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        let mut found = Some(root);
        loop {
            if let Some(v) = found.take() {
                index[v] = discovered;
                low[v] = discovered;
                discovered += 1;
                stack.push(v as u32);
                path.push((v as u32, g.offsets[v]));
            }
            let Some((v, pos)) = path.last_mut() else {
                break;
            };
            let v = *v as usize;
            if *pos < g.offsets[v + 1] {
                let e = g.edges[*pos as usize];
                *pos += 1;
                if !kind.follows(&e.kind) {
                    continue;
                }
                let w = e.target.index();
                if index[w] == UNSEEN {
                    found = Some(w);
                } else if height[w] == UNSEEN {
                    // `w` is on the stack: in `v`'s component or below it.
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                low[parent as usize] = low[parent as usize].min(low[v]);
            }
            if low[v] != index[v] {
                continue;
            }
            // `v` roots a component, the stack from `v` up. Each edge out
            // of it ends inside it or in a component already complete.
            let start = stack
                .iter()
                .rposition(|&m| m as usize == v)
                .expect("v is on the stack");
            let mut h = 0;
            for &m in &stack[start..] {
                let m = m as usize;
                for e in &g.edges[g.offsets[m] as usize..g.offsets[m + 1] as usize] {
                    let t = height[e.target.index()];
                    if t != UNSEEN && kind.follows(&e.kind) {
                        h = h.max(t + 1);
                    }
                }
            }
            for &m in &stack[start..] {
                height[m as usize] = h;
            }
            stack.truncate(start);
        }
    }
    height
}
