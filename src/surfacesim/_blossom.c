/* Maximum-weight matching: the multi-tree blossom solver of
 * surfacesim.matching, compiled.  The algorithm is described there; this
 * file follows the Python reference kept in tests/blossom_reference.py
 * step for step, so that both return the same mates, ties included:
 *
 * - every float expression is evaluated in the reference's order (and
 *   compiled with -ffp-contract=off, so no fused multiply-add);
 * - events compare as the reference's tuples (time, kind, index, stamp,
 *   stamp, owner), lexicographically;
 * - the heap sifts as CPython's heapq does;
 * - an event is identified by its slot in the event pool where the
 *   reference compares tuple identity (`cur[owner] is ev`);
 * - member, mark, child and queue lists keep their insertion order;
 * - each reference assert is a check that returns its source line.
 *
 *     int max_weight_matching(int n, int m, const double *edges, int *mate)
 *
 * edges holds m (i, j, weight) triples with 0 <= i, j < n; mate[v]
 * receives v's partner or -1.  Returns 0, MWM_NOMEM, MWM_BAD_VERTEX, or
 * the line of a check that failed.
 *
 * The decoder's candidate-graph build, candidate_graph, is at the end.
 */

#include <setjmp.h>
#include <stdlib.h>

#define EPS 1e-12

enum { STOP, EDGE, EXPAND };  /* event kinds, in tie order */
enum { MWM_OK, MWM_NOMEM, MWM_BAD_VERTEX };

/* cur[v]: NONE while v is not a scanned S vertex, NO_EVENT once v is
 * scanned without an event (the reference's no_event, time maxweight,
 * edge -1), else the pool slot of v's event. */
#define NONE (-1)
#define NO_EVENT (-2)

typedef struct {
    int *a;
    int len, cap;
} vec;

typedef struct {
    double t;
    long long s1, s2;  /* stamps of the edge's ends; expand: the blossom's, 0 */
    int kind, idx, owner;
    int in_heap;
    int next_free;
} event;

typedef struct {
    jmp_buf fail;
    int err;
    int n;
    double maxweight, now;
    int *endpoint;      /* endpoint[p]: vertex at endpoint p; edge k has 2k, 2k+1 */
    int *nbstart, *nb;  /* remote endpoints of v's edges: nb[nbstart[v]..nbstart[v+1]) */
    double *wt2;
    int *mate, *label, *labelend, *tree, *inblossom, *bparent, *bbase;
    vec *childs, *endps;  /* per blossom */
    int *unused;
    int nunused;
    double *off;
    int *rate;
    long long *stamp;
    int *cur;
    vec *members, *marks;  /* per tree root; marks holds (vertex, endpoint) pairs */
    char *has_members, *has_marks;
    event *ev;
    int nev, capev, free_ev;
    int *heap;
    int nheap, capheap;
    /* Read-in only: first_t[v], first_p[v] are the time and remote endpoint
     * of v's least-slack edge among all of its edges, found as a first scan
     * at time 0 would find it; touched[v]: v is an end of an edge tight at
     * time 0. */
    double *first_t;
    int *first_p, *fill;
    char *touched;
    vec queue, leaves, path, unscanned, loose, rot;
} state;

static void fail(state *s, int code)
{
    s->err = code;
    longjmp(s->fail, 1);
}

#define CHECK(s, cond) do { if (!(cond)) fail((s), __LINE__); } while (0)

static void *alloc(state *s, size_t count, size_t size)
{
    void *p = calloc(count ? count : 1, size);
    if (!p)
        fail(s, MWM_NOMEM);
    return p;
}

static void push(state *s, vec *v, int x)
{
    if (v->len == v->cap) {
        int cap = v->cap ? 2 * v->cap : 8;
        int *a = realloc(v->a, (size_t)cap * sizeof *a);
        if (!a)
            fail(s, MWM_NOMEM);
        v->a = a;
        v->cap = cap;
    }
    v->a[v->len++] = x;
}

/* Index a list as Python does: -len <= j < 0 counts from the end. */
static int at(const vec *v, int j)
{
    return v->a[j < 0 ? j + v->len : j];
}

static int index_of(state *s, const vec *v, int x)
{
    for (int i = 0; i < v->len; i++)
        if (v->a[i] == x)
            return i;
    fail(s, __LINE__);
    return -1;
}

/* --- events and the heap ------------------------------------------------ */

static int new_event(state *s, double t, int kind, int idx, long long s1,
                     long long s2, int owner)
{
    int e;
    if (s->free_ev >= 0) {
        e = s->free_ev;
        s->free_ev = s->ev[e].next_free;
    } else {
        if (s->nev == s->capev) {
            int cap = s->capev ? 2 * s->capev : 64;
            event *ev = realloc(s->ev, (size_t)cap * sizeof *ev);
            if (!ev)
                fail(s, MWM_NOMEM);
            s->ev = ev;
            s->capev = cap;
        }
        e = s->nev++;
    }
    event *x = &s->ev[e];
    x->t = t;
    x->kind = kind;
    x->idx = idx;
    x->s1 = s1;
    x->s2 = s2;
    x->owner = owner;
    x->in_heap = 0;
    return e;
}

static void free_event(state *s, int e)
{
    s->ev[e].next_free = s->free_ev;
    s->free_ev = e;
}

/* Only cur[owner] ever holds an edge event, so a slot is free once it is
 * neither in the heap nor its owner's current event. */
static void set_cur(state *s, int x, int e)
{
    int old = s->cur[x];
    s->cur[x] = e;
    if (old >= 0 && old != e && !s->ev[old].in_heap)
        free_event(s, old);
}

static double cur_t(const state *s, int e)
{
    return e == NO_EVENT ? s->maxweight : s->ev[e].t;
}

static int cur_k(const state *s, int e)
{
    return e == NO_EVENT ? -1 : s->ev[e].idx;
}

/* Tuple order: time, kind, index, stamps, owner (0 for 5-tuples). */
static int less(const state *s, int a, int b)
{
    const event *x = &s->ev[a], *y = &s->ev[b];
    if (x->t != y->t)
        return x->t < y->t;
    if (x->kind != y->kind)
        return x->kind < y->kind;
    if (x->idx != y->idx)
        return x->idx < y->idx;
    if (x->s1 != y->s1)
        return x->s1 < y->s1;
    if (x->s2 != y->s2)
        return x->s2 < y->s2;
    return x->owner < y->owner;
}

/* heapq's _siftdown and _siftup. */
static void siftdown(state *s, int startpos, int pos)
{
    int *h = s->heap;
    int newitem = h[pos];
    while (pos > startpos) {
        int parentpos = (pos - 1) >> 1;
        int parent = h[parentpos];
        if (!less(s, newitem, parent))
            break;
        h[pos] = parent;
        pos = parentpos;
    }
    h[pos] = newitem;
}

static void siftup(state *s, int pos)
{
    int *h = s->heap;
    int endpos = s->nheap, startpos = pos, newitem = h[pos];
    int childpos = 2 * pos + 1;
    while (childpos < endpos) {
        int rightpos = childpos + 1;
        if (rightpos < endpos && !less(s, h[childpos], h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    h[pos] = newitem;
    siftdown(s, startpos, pos);
}

static void heap_append(state *s, int e)
{
    if (s->nheap == s->capheap) {
        int cap = s->capheap ? 2 * s->capheap : 64;
        int *h = realloc(s->heap, (size_t)cap * sizeof *h);
        if (!h)
            fail(s, MWM_NOMEM);
        s->heap = h;
        s->capheap = cap;
    }
    s->heap[s->nheap++] = e;
    s->ev[e].in_heap = 1;
}

static void heap_push(state *s, int e)
{
    heap_append(s, e);
    siftdown(s, 0, s->nheap - 1);
}

static int heap_pop(state *s)
{
    CHECK(s, s->nheap > 0);
    int last = s->heap[--s->nheap];
    int top = last;
    if (s->nheap > 0) {
        top = s->heap[0];
        s->heap[0] = last;
        siftup(s, 0);
    }
    s->ev[top].in_heap = 0;
    return top;
}

/* --- the solver's steps, as in the reference ---------------------------- */

static void set_rate(state *s, int x, int r)
{
    if (s->rate[x] != r) {
        s->off[x] += (double)(s->rate[x] - r) * s->now;
        s->rate[x] = r;
        s->stamp[x]++;
        set_cur(s, x, NONE);
    }
}

/* Make owner's event: edge k becomes tight at time t. */
static void push_edge(state *s, int k, double t, int owner)
{
    int e = new_event(s, t, EDGE, k, s->stamp[s->endpoint[2 * k]],
                      s->stamp[s->endpoint[2 * k + 1]], owner);
    set_cur(s, owner, e);
    heap_push(s, e);
}

/* Recompute the event of scanned S vertex x. */
static void push_own(state *s, int x)
{
    int bx = s->inblossom[x];
    double ox = s->off[x];
    double best = s->maxweight;
    int bp = -1;
    for (int i = s->nbstart[x]; i < s->nbstart[x + 1]; i++) {
        int p = s->nb[i];
        int w = s->endpoint[p];
        int bw = s->inblossom[w];
        if (bw != bx) {
            int lw = s->label[bw];
            double t;
            if (lw == 1)
                t = (ox + s->off[w] - s->wt2[p >> 1]) * 0.5;
            else if (lw == 0)
                t = ox + s->off[w] - s->wt2[p >> 1];
            else
                continue;
            if (t < best) {
                best = t;
                bp = p;
            }
        }
    }
    if (bp >= 0)
        push_edge(s, bp >> 1, best, x);
    else
        set_cur(s, x, NO_EVENT);
}

/* Offer each edge of x, just unlabelled without a finished scan as S, to
 * its scanned S neighbour when it tightens before that neighbour's event. */
static void offer(state *s, int x)
{
    int bx = s->inblossom[x];
    double ox = s->off[x];
    for (int i = s->nbstart[x]; i < s->nbstart[x + 1]; i++) {
        int p = s->nb[i];
        int w = s->endpoint[p];
        int bw = s->inblossom[w];
        if (bw != bx && s->label[bw] == 1) {
            int e = s->cur[w];
            if (e != NONE) {
                int k = p >> 1;
                double t = ox + s->off[w] - s->wt2[k];
                if (t < cur_t(s, e) || (t == cur_t(s, e) && k < cur_k(s, e)))
                    push_edge(s, k, t, w);
            }
        }
    }
}

/* Append the vertices of b, depth first, to s->leaves. */
static void collect_leaves(state *s, int b)
{
    if (b < s->n) {
        push(s, &s->leaves, b);
        return;
    }
    const vec *c = &s->childs[b];
    for (int i = 0; i < c->len; i++) {
        int t = c->a[i];
        if (t < s->n)
            push(s, &s->leaves, t);
        else
            collect_leaves(s, t);
    }
}

static void add_member(state *s, int root, int b)
{
    CHECK(s, root >= 0);
    if (!s->has_members[root]) {
        s->members[root].len = 0;
        push(s, &s->members[root], root);
        s->has_members[root] = 1;
    }
    push(s, &s->members[root], b);
}

static void assign_label(state *s, int w, int t, int p)
{
    int n = s->n;
    int b = s->inblossom[w];
    CHECK(s, s->label[w] == 0 && s->label[b] == 0);
    s->label[w] = s->label[b] = t;
    s->labelend[w] = s->labelend[b] = p;
    int root = s->tree[s->inblossom[s->endpoint[p]]];
    s->tree[b] = root;
    add_member(s, root, b);
    int start = s->leaves.len;
    if (t == 1) {
        if (b >= n)
            set_rate(s, b, 1);
        collect_leaves(s, b);
        for (int i = start; i < s->leaves.len; i++) {
            int v = s->leaves.a[i];
            set_rate(s, v, -1);
            push(s, &s->queue, v);
        }
        s->leaves.len = start;
    } else {
        if (b >= n) {
            set_rate(s, b, -1);
            heap_push(s, new_event(s, s->off[b], EXPAND, b, s->stamp[b], 0, 0));
        }
        collect_leaves(s, b);
        for (int i = start; i < s->leaves.len; i++)
            set_rate(s, s->leaves.a[i], 1);
        s->leaves.len = start;
        int base = s->bbase[b];
        CHECK(s, s->mate[base] >= 0);
        assign_label(s, s->endpoint[s->mate[base]], 1, s->mate[base] ^ 1);
    }
}

/* Trace back from v and w to a common tree ancestor base; -1 when they lie
 * in different trees. */
static int scan_blossom(state *s, int v, int w)
{
    vec *path = &s->path;
    int base = -1;
    path->len = 0;
    while (v != -1 || w != -1) {
        int b = s->inblossom[v];
        if (s->label[b] & 4) {
            base = s->bbase[b];
            break;
        }
        CHECK(s, s->label[b] == 1);
        push(s, path, b);
        s->label[b] = 5;
        CHECK(s, s->labelend[b] == s->mate[s->bbase[b]]);
        if (s->labelend[b] == -1) {
            v = -1;
        } else {
            v = s->endpoint[s->labelend[b]];
            b = s->inblossom[v];
            CHECK(s, s->label[b] == 2);
            CHECK(s, s->labelend[b] >= 0);
            v = s->endpoint[s->labelend[b]];
        }
        if (w != -1) {
            int x = v;
            v = w;
            w = x;
        }
    }
    for (int i = 0; i < path->len; i++)
        s->label[path->a[i]] = 1;
    return base;
}

static void reverse(vec *v)
{
    for (int i = 0, j = v->len - 1; i < j; i++, j--) {
        int x = v->a[i];
        v->a[i] = v->a[j];
        v->a[j] = x;
    }
}

/* Shrink the cycle through edge k and base into a new S-blossom. */
static void add_blossom(state *s, int base, int k)
{
    int n = s->n;
    int v = s->endpoint[2 * k], w = s->endpoint[2 * k + 1];
    int bb = s->inblossom[base];
    int bv = s->inblossom[v];
    int bw = s->inblossom[w];
    CHECK(s, s->nunused > 0);
    int b = s->unused[--s->nunused];
    s->bbase[b] = base;
    s->bparent[b] = -1;
    s->bparent[bb] = b;
    vec *path = &s->childs[b], *endps = &s->endps[b];
    path->len = endps->len = 0;
    while (bv != bb) {
        s->bparent[bv] = b;
        push(s, path, bv);
        push(s, endps, s->labelend[bv]);
        CHECK(s, s->label[bv] == 2 || (s->label[bv] == 1
                                       && s->labelend[bv] == s->mate[s->bbase[bv]]));
        CHECK(s, s->labelend[bv] >= 0);
        v = s->endpoint[s->labelend[bv]];
        bv = s->inblossom[v];
    }
    push(s, path, bb);
    reverse(path);
    reverse(endps);
    push(s, endps, 2 * k);
    while (bw != bb) {
        s->bparent[bw] = b;
        push(s, path, bw);
        push(s, endps, s->labelend[bw] ^ 1);
        CHECK(s, s->label[bw] == 2 || (s->label[bw] == 1
                                       && s->labelend[bw] == s->mate[s->bbase[bw]]));
        CHECK(s, s->labelend[bw] >= 0);
        w = s->endpoint[s->labelend[bw]];
        bw = s->inblossom[w];
    }
    CHECK(s, s->label[bb] == 1);
    s->label[b] = 1;
    s->labelend[b] = s->labelend[bb];
    s->tree[b] = s->tree[bb];
    add_member(s, s->tree[b], b);
    s->off[b] = 0.0;
    s->rate[b] = 0;
    set_rate(s, b, 1);
    for (int i = 0; i < path->len; i++)
        if (path->a[i] >= n)
            set_rate(s, path->a[i], 0);  /* nested z freezes */
    int start = s->leaves.len;
    collect_leaves(s, b);
    for (int i = start; i < s->leaves.len; i++) {
        int leaf = s->leaves.a[i];
        if (s->label[s->inblossom[leaf]] == 2) {
            set_rate(s, leaf, -1);
            push(s, &s->queue, leaf);
        }
        s->inblossom[leaf] = b;
    }
    s->leaves.len = start;
}

/* Dissolve top-level T-blossom b, whose z has reached zero. */
static void expand_blossom(state *s, int b)
{
    int n = s->n;
    const vec *childs = &s->childs[b], *endps = &s->endps[b];
    for (int i = 0; i < childs->len; i++) {
        int c = childs->a[i];
        s->bparent[c] = -1;
        if (c < n) {
            s->inblossom[c] = c;
        } else {
            int start = s->leaves.len;
            collect_leaves(s, c);
            for (int l = start; l < s->leaves.len; l++)
                s->inblossom[s->leaves.a[l]] = c;
            s->leaves.len = start;
        }
    }
    set_rate(s, b, 0);
    /* Relabel the path through the blossom that the tree uses. */
    CHECK(s, s->labelend[b] >= 0);
    int entrychild = s->inblossom[s->endpoint[s->labelend[b] ^ 1]];
    int j = index_of(s, childs, entrychild);
    int jstep, endptrick;
    if (j & 1) {
        j -= childs->len;
        jstep = 1;
        endptrick = 0;
    } else {
        jstep = -1;
        endptrick = 1;
    }
    int p = s->labelend[b];
    while (j != 0) {
        s->label[s->endpoint[p ^ 1]] = 0;
        s->label[s->endpoint[at(endps, j - endptrick) ^ endptrick ^ 1]] = 0;
        assign_label(s, s->endpoint[p ^ 1], 2, p);
        j += jstep;
        p = at(endps, j - endptrick) ^ endptrick;
        j += jstep;
    }
    int bv = at(childs, j);
    s->label[s->endpoint[p ^ 1]] = s->label[bv] = 2;
    s->labelend[s->endpoint[p ^ 1]] = s->labelend[bv] = p;
    s->tree[bv] = s->tree[b];
    add_member(s, s->tree[b], bv);
    if (bv >= n) {
        set_rate(s, bv, -1);
        heap_push(s, new_event(s, s->off[bv], EXPAND, bv, s->stamp[bv], 0, 0));
    }
    /* The other children join a tree through a marked vertex, or become
     * unlabelled. */
    vec *loose = &s->loose;
    loose->len = 0;
    j += jstep;
    while (at(childs, j) != entrychild) {
        bv = at(childs, j);
        if (s->label[bv] == 1) {
            j += jstep;
            continue;
        }
        int start = s->leaves.len;
        collect_leaves(s, bv);
        int leaf = -1;
        for (int l = start; l < s->leaves.len; l++) {
            if (s->label[s->leaves.a[l]] != 0) {
                leaf = s->leaves.a[l];
                break;
            }
        }
        if (leaf >= 0) {
            s->leaves.len = start;
            CHECK(s, s->label[leaf] == 2);
            CHECK(s, s->inblossom[leaf] == bv);
            s->label[leaf] = 0;
            s->label[s->endpoint[s->mate[s->bbase[bv]]]] = 0;
            assign_label(s, leaf, 2, s->labelend[leaf]);
        } else {
            for (int l = start; l < s->leaves.len; l++) {
                set_rate(s, s->leaves.a[l], 0);
                push(s, loose, s->leaves.a[l]);
            }
            s->leaves.len = start;
        }
        j += jstep;
    }
    for (int i = 0; i < loose->len; i++)
        offer(s, loose->a[i]);
    s->label[b] = s->labelend[b] = s->tree[b] = -1;
    s->childs[b].len = s->endps[b].len = 0;
    s->bbase[b] = -1;
    s->unused[s->nunused++] = b;
}

/* Rotate v left by i places. */
static void rotate(state *s, vec *v, int i)
{
    vec *tmp = &s->rot;
    tmp->len = 0;
    for (int j = i; j < v->len; j++)
        push(s, tmp, v->a[j]);
    for (int j = 0; j < i; j++)
        push(s, tmp, v->a[j]);
    for (int j = 0; j < v->len; j++)
        v->a[j] = tmp->a[j];
}

/* Swap matched and unmatched edges along the path base..v inside b. */
static void augment_blossom(state *s, int b, int v)
{
    int n = s->n;
    int t = v;
    while (s->bparent[t] != b)
        t = s->bparent[t];
    if (t >= n)
        augment_blossom(s, t, v);
    vec *childs = &s->childs[b], *endps = &s->endps[b];
    int i = index_of(s, childs, t), j = i;
    int jstep, endptrick;
    if (i & 1) {
        j -= childs->len;
        jstep = 1;
        endptrick = 0;
    } else {
        jstep = -1;
        endptrick = 1;
    }
    while (j != 0) {
        j += jstep;
        t = at(childs, j);
        int p = at(endps, j - endptrick) ^ endptrick;
        if (t >= n)
            augment_blossom(s, t, s->endpoint[p]);
        j += jstep;
        t = at(childs, j);
        if (t >= n)
            augment_blossom(s, t, s->endpoint[p ^ 1]);
        s->mate[s->endpoint[p]] = p ^ 1;
        s->mate[s->endpoint[p ^ 1]] = p;
    }
    rotate(s, childs, i);
    rotate(s, endps, i);
    s->bbase[b] = s->bbase[childs->a[0]];
    CHECK(s, s->bbase[b] == v);
}

static void augment_matching(state *s, int k)
{
    int n = s->n;
    int ends[2][2] = {{s->endpoint[2 * k], 2 * k + 1}, {s->endpoint[2 * k + 1], 2 * k}};
    for (int e = 0; e < 2; e++) {
        int v = ends[e][0], p = ends[e][1];
        for (;;) {
            int bs = s->inblossom[v];
            CHECK(s, s->label[bs] == 1);
            CHECK(s, s->labelend[bs] == s->mate[s->bbase[bs]]);
            if (bs >= n)
                augment_blossom(s, bs, v);
            s->mate[v] = p;
            if (s->labelend[bs] == -1)
                break;
            int t = s->endpoint[s->labelend[bs]];
            int bt = s->inblossom[t];
            CHECK(s, s->label[bt] == 2);
            CHECK(s, s->labelend[bt] >= 0);
            v = s->endpoint[s->labelend[bt]];
            int j = s->endpoint[s->labelend[bt] ^ 1];
            CHECK(s, s->bbase[bt] == t);
            if (s->inblossom[j] >= n)
                augment_blossom(s, s->inblossom[j], j);
            s->mate[j] = s->labelend[bt];
            p = s->labelend[bt] ^ 1;
        }
    }
}

/* Unlabel b and what it holds; its vertices that leave without a finished
 * scan as S (T vertices included) go to unscanned. */
static void clear(state *s, int b)
{
    s->label[b] = 0;
    s->labelend[b] = -1;
    if (b < s->n) {
        if (s->cur[b] == NONE)
            push(s, &s->unscanned, b);
        set_rate(s, b, 0);
    } else {
        const vec *c = &s->childs[b];
        for (int i = 0; i < c->len; i++)
            clear(s, c->a[i]);
    }
}

static void dissolve_one(state *s, int root, int b)
{
    if (s->bparent[b] == -1 && s->label[b] > 0 && s->tree[b] == root) {
        s->tree[b] = -1;
        if (b >= s->n)
            set_rate(s, b, 0);
        clear(s, b);
    }
}

/* Unlabel every blossom of the tree rooted at root, nested ones included,
 * and drop the marks its scans left in other trees. */
static void dissolve(state *s, int root)
{
    if (s->has_members[root]) {
        s->has_members[root] = 0;
        const vec *m = &s->members[root];
        for (int i = 0; i < m->len; i++)
            dissolve_one(s, root, m->a[i]);
    } else {
        dissolve_one(s, root, root);
    }
    if (s->has_marks[root]) {
        s->has_marks[root] = 0;
        const vec *m = &s->marks[root];
        for (int i = 0; i < m->len; i += 2) {
            int w = m->a[i], q = m->a[i + 1];
            if (s->labelend[w] == q) {
                s->label[w] = 0;
                s->labelend[w] = -1;
            }
        }
    }
}

static int lone(const state *s, int r)
{
    return !s->has_members[r] && !s->has_marks[r];
}

/* Act on tight edge k between S vertices v and w: shrink a blossom, or
 * augment and dissolve both trees (returns 1). */
static int tight_ss(state *s, int v, int w, int k)
{
    int rv = s->tree[s->inblossom[v]];
    int rw = s->tree[s->inblossom[w]];
    CHECK(s, rv >= 0 && rw >= 0);
    if (lone(s, rv) && lone(s, rw)) {
        /* Two lone roots: v and w themselves. */
        s->mate[s->endpoint[2 * k]] = 2 * k + 1;
        s->mate[s->endpoint[2 * k + 1]] = 2 * k;
        int xs[2] = {v, w};
        for (int i = 0; i < 2; i++) {
            s->label[xs[i]] = 0;
            s->tree[xs[i]] = -1;
            set_rate(s, xs[i], 0);
        }
        return 1;
    }
    int base = scan_blossom(s, v, w);
    if (base >= 0) {
        add_blossom(s, base, k);
        return 0;
    }
    augment_matching(s, k);
    s->unscanned.len = 0;
    dissolve(s, rv);
    dissolve(s, rw);
    for (int i = 0; i < s->unscanned.len; i++)
        offer(s, s->unscanned.a[i]);
    return 1;
}

/* Act on the tight edges of S vertex v, make v's event and offer each
 * scanned S neighbour its edge; returns 1 if v's tree augmented. */
static int scan(state *s, int v)
{
    int found = 0;
    double best_t = s->maxweight;
    int best_k = -1;
    long long best_s1 = 0, best_s2 = 0;
    int bv = s->inblossom[v];
    for (int i = s->nbstart[v]; i < s->nbstart[v + 1]; i++) {
        int p = s->nb[i];
        int w = s->endpoint[p];
        int bw = s->inblossom[w];
        if (bv == bw)
            continue;
        int lw = s->label[bw];
        if (lw == 2 && s->label[w])
            continue;
        /* v is S: its dual is off[v] - now. */
        int k = p >> 1;
        double t0 = s->off[v] + s->off[w] - s->wt2[k];
        double t;
        if (lw == 1) {
            if (t0 - 2.0 * s->now <= EPS) {
                if (tight_ss(s, v, w, k))
                    return 1;
                bv = s->inblossom[v];  /* v's new blossom */
                continue;
            }
            t = 0.5 * t0;
            int e = s->cur[w];
            if (e != NONE && (t < cur_t(s, e) || (t == cur_t(s, e) && k < cur_k(s, e))))
                push_edge(s, k, t, w);
        } else if (lw == 0) {
            if (t0 - s->now <= EPS) {
                assign_label(s, w, 2, p ^ 1);
                continue;
            }
            t = t0;
        } else {
            if (t0 <= EPS) {
                s->label[w] = 2;
                s->labelend[w] = p ^ 1;
                int root = s->tree[bv];
                CHECK(s, root >= 0);
                if (!s->has_marks[root]) {
                    s->marks[root].len = 0;
                    s->has_marks[root] = 1;
                }
                push(s, &s->marks[root], w);
                push(s, &s->marks[root], p ^ 1);
            }
            continue;
        }
        if (t < best_t) {
            found = 1;
            best_t = t;
            best_k = k;
            best_s1 = s->stamp[s->endpoint[2 * k]];
            best_s2 = s->stamp[s->endpoint[2 * k + 1]];
        }
    }
    if (found) {
        int e = new_event(s, best_t, EDGE, best_k, best_s1, best_s2, v);
        set_cur(s, v, e);
        heap_push(s, e);
    } else {
        set_cur(s, v, NO_EVENT);
    }
    return 0;
}

static void solve(state *s, int n, int m, const double *edges, int *out)
{
    s->n = n;
    for (int k = 0; k < 2 * m; k++) {
        double x = edges[3 * (k >> 1) + (k & 1)];
        if (!(x >= 0 && x < n && x == (int)x))
            fail(s, MWM_BAD_VERTEX);
    }
    if (m == 0) {
        for (int v = 0; v < n; v++)
            out[v] = -1;
        return;
    }
    double maxweight = 0.0;
    for (int k = 0; k < m; k++)
        if (edges[3 * k + 2] > maxweight)
            maxweight = edges[3 * k + 2];
    s->maxweight = maxweight;
    /* The slack of an edge while both ends are unchanged S roots, as a scan
     * computes it: (maxweight + maxweight) - wt2[k], falling at rate 2. */
    double root_slack = maxweight + maxweight;

    s->endpoint = alloc(s, 2 * (size_t)m, sizeof(int));
    s->wt2 = alloc(s, m, sizeof(double));
    s->nbstart = alloc(s, (size_t)n + 1, sizeof(int));
    s->nb = alloc(s, 2 * (size_t)m, sizeof(int));
    for (int k = 0; k < m; k++) {
        s->nbstart[(int)edges[3 * k] + 1]++;
        s->nbstart[(int)edges[3 * k + 1] + 1]++;
    }
    for (int v = 0; v < n; v++)
        s->nbstart[v + 1] += s->nbstart[v];
    int *fill = s->fill = alloc(s, (size_t)n, sizeof(int));
    for (int v = 0; v < n; v++)
        fill[v] = s->nbstart[v];
    double *first_t = s->first_t = alloc(s, (size_t)n, sizeof(double));
    int *first_p = s->first_p = alloc(s, (size_t)n, sizeof(int));
    char *touched = s->touched = alloc(s, (size_t)n, 1);
    for (int v = 0; v < n; v++) {
        first_t[v] = maxweight;
        first_p[v] = -1;
    }
    for (int k = 0, p = 0; k < m; k++, p += 2) {
        int i = (int)edges[3 * k], j = (int)edges[3 * k + 1];
        s->endpoint[p] = i;
        s->endpoint[p + 1] = j;
        s->nb[fill[i]++] = p + 1;
        s->nb[fill[j]++] = p;
        double w2 = 2.0 * edges[3 * k + 2];
        s->wt2[k] = w2;
        double t0 = root_slack - w2;
        if (t0 <= EPS) {
            touched[i] = touched[j] = 1;
        } else {
            double t = 0.5 * t0;
            if (t < first_t[i]) {
                first_t[i] = t;
                first_p[i] = p + 1;
            }
            if (t < first_t[j]) {
                first_t[j] = t;
                first_p[j] = p;
            }
        }
    }

    size_t n2 = 2 * (size_t)n;
    s->mate = alloc(s, n, sizeof(int));
    s->label = alloc(s, n2, sizeof(int));
    s->labelend = alloc(s, n2, sizeof(int));
    s->tree = alloc(s, n2, sizeof(int));
    s->inblossom = alloc(s, n, sizeof(int));
    s->bparent = alloc(s, n2, sizeof(int));
    s->bbase = alloc(s, n2, sizeof(int));
    s->childs = alloc(s, n2, sizeof(vec));
    s->endps = alloc(s, n2, sizeof(vec));
    s->unused = alloc(s, n, sizeof(int));
    s->off = alloc(s, n2, sizeof(double));
    s->rate = alloc(s, n2, sizeof(int));
    s->stamp = alloc(s, n2, sizeof(long long));
    s->cur = alloc(s, n2, sizeof(int));
    s->members = alloc(s, n, sizeof(vec));
    s->marks = alloc(s, n, sizeof(vec));
    s->has_members = alloc(s, n, 1);
    s->has_marks = alloc(s, n, 1);
    for (int v = 0; v < n; v++) {
        /* Every vertex starts as the S root of its own tree. */
        s->mate[v] = -1;
        s->label[v] = 1;
        s->tree[v] = v;
        s->inblossom[v] = v;
        s->bbase[v] = v;
        s->off[v] = maxweight;
        s->rate[v] = -1;
        s->unused[v] = n + v;
    }
    s->nunused = n;
    for (size_t x = 0; x < n2; x++) {
        s->labelend[x] = -1;
        s->bparent[x] = -1;
        s->cur[x] = NONE;
        if (x >= (size_t)n)
            s->tree[x] = s->bbase[x] = -1;
    }

    /* The stop event ends the run when popped, so the heap is never empty.
     * The ends of edges tight at time 0 wait in the queue for a full first
     * scan; every other vertex starts with its recorded edge. */
    heap_append(s, new_event(s, maxweight, STOP, 0, 0, 0, 0));
    for (int v = 0; v < n; v++) {
        if (touched[v]) {
            push(s, &s->queue, v);
        } else if (first_p[v] >= 0) {
            int e = new_event(s, first_t[v], EDGE, first_p[v] >> 1, 0, 0, v);
            s->cur[v] = e;
            heap_append(s, e);
        } else {
            s->cur[v] = NO_EVENT;
        }
    }
    for (int i = s->nheap / 2 - 1; i >= 0; i--)
        siftup(s, i);

    int nfree = n;
    while (nfree >= 2) {
        if (s->queue.len) {
            int v = s->queue.a[--s->queue.len];
            if (s->label[s->inblossom[v]] == 1 && scan(s, v))
                nfree -= 2;
            continue;
        }
        int e = heap_pop(s);
        event ev = s->ev[e];
        int x = ev.idx;
        if (ev.kind == EDGE) {
            int owner = ev.owner;
            if (s->cur[owner] != e) {
                free_event(s, e);
                continue;  /* replaced, or its owner changed rate */
            }
            int v = s->endpoint[2 * x], w = s->endpoint[2 * x + 1];
            if (s->stamp[v] == ev.s1 && s->stamp[w] == ev.s2
                    && s->inblossom[v] != s->inblossom[w]) {
                if (ev.t > s->now)
                    s->now = ev.t;
                if (s->label[s->inblossom[v]] == 0) {
                    assign_label(s, v, 2, 2 * x + 1);
                } else if (s->label[s->inblossom[w]] == 0) {
                    assign_label(s, w, 2, 2 * x);
                } else if (tight_ss(s, w, v, x)) {
                    nfree -= 2;
                    continue;
                }
            }
            /* Stale, or acted on with the owner still S: recompute. */
            push_own(s, owner);
        } else if (ev.kind == EXPAND) {
            free_event(s, e);
            if (s->stamp[x] != ev.s1)
                continue;
            if (ev.t > s->now)
                s->now = ev.t;
            expand_blossom(s, x);
        } else {
            break;  /* free vertices' duals reach zero: the matching is optimal */
        }
    }

    for (int v = 0; v < n; v++)
        out[v] = s->mate[v] >= 0 ? s->endpoint[s->mate[v]] : -1;
}

static void release(state *s)
{
    if (s->childs)
        for (int b = 0; b < 2 * s->n; b++) {
            free(s->childs[b].a);
            free(s->endps[b].a);
        }
    if (s->members)
        for (int r = 0; r < s->n; r++) {
            free(s->members[r].a);
            free(s->marks[r].a);
        }
    void *blocks[] = {
        s->endpoint, s->nbstart, s->nb, s->wt2, s->mate, s->label, s->labelend,
        s->tree, s->inblossom, s->bparent, s->bbase, s->childs, s->endps,
        s->unused, s->off, s->rate, s->stamp, s->cur, s->members, s->marks,
        s->has_members, s->has_marks, s->ev, s->heap, s->first_t, s->first_p,
        s->fill, s->touched, s->queue.a, s->leaves.a,
        s->path.a, s->unscanned.a, s->loose.a, s->rot.a,
    };
    for (size_t i = 0; i < sizeof blocks / sizeof *blocks; i++)
        free(blocks[i]);
    free(s);
}

int max_weight_matching(int n, int m, const double *edges, int *mate)
{
    state *s = calloc(1, sizeof *s);
    if (!s)
        return MWM_NOMEM;
    s->free_ev = -1;
    if (setjmp(s->fail) == 0)
        solve(s, n, m, edges, mate);
    int err = s->err;
    release(s);
    return err;
}

/* --- the decoder's candidate graph -------------------------------------- */

/* candidate_graph: events[u] and events[k + u] are event u's stabilizer
 * (0..S-1) and round.  A pair, the earlier event at stabilizer a and the
 * later dt < R rounds after at c, is kept if gain[(a * S + c) * R + dt]
 * is not 0.  Writes the events by component to comps[0..k), their number
 * nc to comps[k], and where each component's events and edges start to
 * comps[k + 1 + c] and comps[2 * k + 2 + c], c = 0..nc.  Edge i is the
 * row edges[3i..3i+3) = (a, b, gain), a < b positions in its component,
 * the layout max_weight_matching reads; rows are sorted by (component,
 * a, b).  Returns the number of kept pairs, having written nothing if it
 * is above cap, or -MWM_NOMEM.
 * The order rules, on which exact ties rest, are in surfacesim.decoder. */

typedef struct {
    int t, label;
} timed;

static int by_round(const void *x, const void *y)
{
    const timed *a = x, *b = y;
    return a->t != b->t ? (a->t > b->t) - (a->t < b->t) : a->label - b->label;
}

int candidate_graph(int k, const int *events, int S, int R, const double *gain,
                    int cap, int *comps, double *edges)
{
    int m = 0, nc = 0, n = 0, rc = -MWM_NOMEM;
    timed *order = malloc((size_t)(k ? k : 1) * sizeof *order);
    int *start = calloc(5 * (size_t)k + 3, sizeof *start), *row = NULL;
    int *rank = start + k + 1, *stack = rank + k, *fill = stack + k, *cnt = fill + k;
    int *cstart = comps + k + 1, *estart = comps + 2 * k + 2;
    double *rowg = NULL;
    if (!order || !start)
        goto done;
    for (int u = 0; u < k; u++)
        order[u] = (timed){events[k + u], u};
    qsort(order, (size_t)k, sizeof *order, by_round);
    /* Pass 0 counts each event's kept pairs, pass 1 fills the rows. */
    for (int pass = 0; pass < 2; pass++) {
        for (int i = 0; i < k; i++) {
            const double *gi = gain + (size_t)events[order[i].label] * S * R;
            for (int j = i + 1; j < k && order[j].t - order[i].t < R; j++) {
                double g = gi[(size_t)events[order[j].label] * R + order[j].t - order[i].t];
                int u = order[i].label, v = order[j].label;
                if (g == 0.0)
                    continue;
                if (pass == 0) {
                    start[u + 1]++;
                    start[v + 1]++;
                } else {
                    rowg[fill[u]] = g;
                    row[fill[u]++] = v;
                    rowg[fill[v]] = g;
                    row[fill[v]++] = u;
                }
            }
        }
        if (pass == 0) {
            for (int u = 0; u < k; u++) {
                start[u + 1] += start[u];
                fill[u] = start[u];
            }
            m = start[k] / 2;
            if (m > cap) {
                rc = m;
                goto done;
            }
            row = malloc((2 * (size_t)m + 1) * sizeof *row);
            rowg = malloc((2 * (size_t)m + 1) * sizeof *rowg);
            if (!row || !rowg)
                goto done;
        }
    }

    for (int u = 0; u < k; u++)
        rank[u] = -1;
    for (int s0 = 0; s0 < k; s0++) {
        if (rank[s0] >= 0)
            continue;
        int sp = 0;
        cstart[nc++] = n;
        rank[s0] = n;
        comps[n++] = stack[sp++] = s0;
        while (sp) {
            int u = stack[--sp];
            for (int i = start[u]; i < start[u + 1]; i++)
                if (rank[row[i]] < 0) {
                    rank[row[i]] = n;
                    comps[n++] = stack[sp++] = row[i];
                }
        }
    }
    comps[k] = nc;
    cstart[nc] = k;

    /* Each edge goes to its lower end's slot, the higher ends visited in
     * order: sorted by the ends' indices in comps, so by (component, a, b). */
    for (int u = 0; u < k; u++)
        for (int i = start[u]; i < start[u + 1]; i++)
            if (rank[row[i]] < rank[u])
                cnt[rank[row[i]] + 1]++;
    for (int r = 0; r < k; r++)
        cnt[r + 1] += cnt[r];
    for (int c = 0; c <= nc; c++)
        estart[c] = cnt[cstart[c]];
    for (int c = 0; c < nc; c++)
        for (int h = cstart[c]; h < cstart[c + 1]; h++)
            for (int i = start[comps[h]]; i < start[comps[h] + 1]; i++) {
                int lo = rank[row[i]];
                if (lo < h) {
                    double *e = edges + 3 * (size_t)cnt[lo]++;
                    e[0] = lo - cstart[c];
                    e[1] = h - cstart[c];
                    e[2] = rowg[i];
                }
            }
    rc = m;
done:
    free(order);
    free(start);
    free(row);
    free(rowg);
    return rc;
}
