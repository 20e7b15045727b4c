/* PathFinder's heap walk for one net: every sink's A* search in one call.
 *
 * The compiled counterpart of `NumpyKernel.route_net`'s scalar loop (the
 * determinism contract is in `repro.vpr.route_kernels`).  A node's cost
 * is computed the first time the net's searches touch it, with
 * `_cost_vector`'s IEEE-754 operations in its order; the A* term with
 * `_h_vector`'s.  Build with -ffp-contract=off and never -ffast-math: a
 * fused multiply-add rounds differently.  All state lives in the
 * caller's `walk_t`, so calls on distinct kernels share nothing.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct { double f, g; int32_t u; } entry;

typedef struct {
    int32_t n;
    const int64_t *off;   /* reduced CSR: no blocked, no wire->IPIN edges */
    const int32_t *tgt;
    const int64_t *xoff;  /* wire->IPIN edges, sorted by the IPIN's tile */
    const int32_t *xu, *xv;
    const double *px, *py, *stat, *jit, *delay;  /* delay: NULL unless timing-driven */
    const int32_t *occ, *cap;
    const uint8_t *blocked;
    double *dist, *cost;
    int32_t *came, *xfirst;
    uint32_t *seen, *priced, *intree, *xmark;    /* epoch stamps */
    uint32_t search, net;                        /* current epochs */
    entry *heap;
    int64_t heap_cap;
    double astar;
    int32_t *nodes, *parents;                    /* the tree, in splice order */
    int64_t stats[2];                            /* heap pops, pushes of the last call */
} walk_t;

/* (f, g, u) in lexicographic order, as Python compares the tuples. */
static int less(const entry *a, const entry *b) {
    if (a->f != b->f) return a->f < b->f;
    if (a->g != b->g) return a->g < b->g;
    return a->u < b->u;
}

static void sift_up(entry *h, int64_t i) {
    entry e = h[i];
    for (int64_t p; i > 0 && less(&e, &h[p = (i - 1) / 2]); i = p) h[i] = h[p];
    h[i] = e;
}

static void sift_down(entry *h, int64_t len) {
    entry e = h[0];
    int64_t i = 0;
    for (int64_t c; (c = 2 * i + 1) < len; i = c) {
        if (c + 1 < len && less(&h[c + 1], &h[c])) c++;
        if (!less(&h[c], &e)) break;
        h[i] = h[c];
    }
    h[i] = e;
}

static uint32_t bump(uint32_t *epoch, uint32_t *a, uint32_t *b, int32_t n) {
    if (++*epoch == 0) {
        memset(a, 0, (size_t)n * sizeof *a);
        memset(b, 0, (size_t)n * sizeof *b);
        *epoch = 1;
    }
    return *epoch;
}

static int push(walk_t *w, int64_t *len, double f, double g, int32_t u) {
    if (*len == w->heap_cap) return 0;
    w->heap[*len] = (entry){f, g, u};
    sift_up(w->heap, (*len)++);
    return 1;
}

/* Route one net: sinks[i] is searched i-th, into tile tiles[i].  Returns
 * the tree's node count (>= 1), 0 when a sink is unreachable, or -1 when
 * the heap is full (grow it and call again). */
int32_t walk_net(walk_t *w, int32_t source, const int32_t *sinks,
                 const int32_t *tiles, int32_t nsinks, int32_t salt,
                 double pres_fac, double crit, double bx0, double bx1,
                 double by0, double by1) {
    const int32_t n = w->n;
    int64_t pops = 0, pushes = 0;
    int32_t size = 1;
    w->stats[0] = w->stats[1] = 0;
    const uint32_t net = bump(&w->net, w->priced, w->intree, n);
    w->nodes[0] = source;
    w->parents[0] = -1;
    w->intree[source] = net;
    for (int32_t s = 0; s < nsinks; s++) {
        const int32_t t = sinks[s];
        const double tx = w->px[t], ty = w->py[t];
        const uint32_t ep = bump(&w->search, w->seen, w->xmark, n);
        const int64_t xhi = w->xoff[tiles[s] + 1];
        for (int64_t i = w->xoff[tiles[s]]; i < xhi; i++) {
            if (w->xmark[w->xu[i]] != ep) { w->xmark[w->xu[i]] = ep; w->xfirst[w->xu[i]] = (int32_t)i; }
        }
        int64_t len = 0, popped = 0;
        /* Once a sink is routed, the SOURCE stops being a seed. */
        for (int32_t i = size > 1; i < size; i++) {
            const int32_t v = w->nodes[i];
            w->dist[v] = 0.0;
            w->seen[v] = ep;
            if (!push(w, &len, w->astar * (fabs(w->px[v] - tx) + fabs(w->py[v] - ty)), 0.0, v)) return -1;
        }
        int found = 0;
        while (len > 0) {
            const entry e = w->heap[0];
            if (--len > 0) { w->heap[0] = w->heap[len]; sift_down(w->heap, len); }
            popped++;
            const int32_t u = e.u;
            if (e.g > w->dist[u]) continue;
            if (u == t) { found = 1; break; }
            /* CSR edges first, then u's taps into the target tile. */
            int64_t k = w->off[u], x = w->xmark[u] == ep ? w->xfirst[u] : xhi;
            for (;;) {
                int32_t v;
                if (k < w->off[u + 1]) v = w->tgt[k++];
                else if (x < xhi && w->xu[x] == u) v = w->xv[x++];
                else break;
                if (w->priced[v] != net) {
                    double c = INFINITY;
                    if (!(w->px[v] < bx0 || w->px[v] > bx1 || w->py[v] < by0 || w->py[v] > by1
                          || w->blocked[v])) {
                        c = w->stat[v] * w->jit[v >= salt ? v - salt : v - salt + n];
                        const double m = 1.0 + pres_fac * (double)(w->occ[v] + 1 - w->cap[v]);
                        c *= m > 1.0 ? m : 1.0;
                        if (crit > 0.0) {
                            c *= 1.0 - crit;
                            c += crit * w->delay[v];
                        }
                    }
                    w->cost[v] = c;
                    w->priced[v] = net;
                }
                const double ng = e.g + w->cost[v];
                if (ng < (w->seen[v] == ep ? w->dist[v] : INFINITY)) {
                    w->dist[v] = ng;
                    w->seen[v] = ep;
                    w->came[v] = u;
                    if (!push(w, &len, ng + w->astar * (fabs(w->px[v] - tx) + fabs(w->py[v] - ty)), ng, v)) return -1;
                }
            }
        }
        pops += popped;
        pushes += popped + len;
        w->stats[0] = pops;
        w->stats[1] = pushes;
        if (!found) return 0;
        /* Splice the path into the tree, attachment end first. */
        int32_t count = 0;
        for (int32_t v = t; w->intree[v] != net; v = w->came[v]) count++;
        for (int32_t v = t, k = size + count - 1; w->intree[v] != net; v = w->came[v], k--) {
            w->nodes[k] = v;
            w->parents[k] = w->came[v];
        }
        for (int32_t k = size; k < size + count; k++) w->intree[w->nodes[k]] = net;
        size += count;
    }
    return size;
}
