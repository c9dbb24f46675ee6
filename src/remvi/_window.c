/* The REM loop's iterations k0..k1 (see solver.run and _kernel.py).
 *
 * Per iteration the two draws, the two component evaluations and, on a
 * geometry with entropy coordinates, their prox are calls into Python:
 * plan.sample_p(draw), plan.sample_q(draw), comps[j1].evaluate(x, scratch,
 * 0), comps[j2].evaluate(x, values, at) and prox_ent(), which writes
 * x[ent] = geom.prox_entropy(z[ent]) with numpy's exp and log.  Everything
 * between them runs here on the run's flat arrays: j1's catch-up prox
 * (lazy mode), the entropy step, j1's correction of z, j2's settle, the
 * table refresh's bookkeeping (shadow, eval_iter, aggregate) and base
 * shift, the whole-iterate settle, the weighted-full sum and, at the last
 * iteration K, fhat as solver.extrapolate forms it.
 *
 * Every operation is the IEEE double operation the numpy loop makes, in
 * the same order, so a run here equals the Python loop bit for bit.  That
 * needs -ffp-contract=off (no fused multiply-add) and no -ffast-math.  A
 * non-finite value in a set is reported as numpy reports it: the largest
 * magnitude over the set, NaN if any value is NaN.
 *
 * rem_window returns 0 when the window ran, 1 on a divergence (the
 * iteration and magnitude in bad_k and bad_norm) and -1 with a Python
 * exception set.
 *
 * The library's other entry points, at the end, build what a run starts
 * from, each equal to the Python or numpy code it stands for:
 * alias_build is the build loop of sampling.AliasTable; lad_mask is
 * generate_lad's mask draw, stepping numpy's PCG64 itself (in unsigned
 * __int128, which gcc has on 64-bit targets) to the same uniforms and
 * hits; lad_components makes make_lad's components, slot for slot
 * the objects its Python build makes (problems.py); and pair_ratio runs
 * the pairs of operators.empirical_full_lipschitz on a CSR linear part
 * from numpy's draws, with numpy's pairwise summation (sum_pairwise) and
 * scipy's csr_matvec order, to the same double.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <stdint.h>

typedef struct {
    /* Python objects: the two draws, the draw stream, the component list,
     * the arrays handed to evaluate and the entropy prox (None without
     * entropy coordinates) */
    PyObject *sample_p, *sample_q, *draw, *comps, *x_obj, *scratch_obj,
             *values_obj, *prox_ent;
    /* the dual state, the table, the weighted-full sum and fhat (at K) */
    double *x, *z, *S, *values, *scratch, *shadow, *old, *wsum, *fhat;
    int64_t *eval_iter;
    /* run constants: probabilities, steps a_0..a_K, sums A_0..A_K */
    const double *p, *a, *A;
    /* per-coordinate prox parameters */
    const double *wx0, *w, *mu, *lo, *hi;
    /* the write layout, the Euclidean read and write layouts, and the
     * Euclidean and entropy coordinates */
    const Py_ssize_t *offsets, *out_all, *r_offsets, *r_all, *w_offsets,
                     *w_all, *every, *ent;
    Py_ssize_t m, d, n_every, n_ent, lazy, K;
    /* carried from one window to the next: the last j2 */
    Py_ssize_t j2;
    /* a divergence: its iteration and the magnitude reported */
    Py_ssize_t bad_k;
    double bad_norm;
} Window;

static PyObject *evaluate_name;

/* The largest |v[idx[t]]| over a set, NaN if any is NaN (numpy's max of
 * abs); idx NULL reads v[0..n-1]. */
static double max_abs(const double *v, const Py_ssize_t *idx, Py_ssize_t n)
{
    double top = 0.0;
    for (Py_ssize_t t = 0; t < n; t++) {
        double u = fabs(v[idx == NULL ? t : idx[t]]);
        if (isnan(u))
            return u;
        if (u > top)
            top = u;
    }
    return top;
}

/* The same over z[i] + A*S[i] on the n coordinates idx. */
static double max_abs_dual(const Window *st, const Py_ssize_t *idx,
                           Py_ssize_t n, double A)
{
    double top = 0.0;
    for (Py_ssize_t t = 0; t < n; t++) {
        double u = fabs(st->z[idx[t]] + A * st->S[idx[t]]);
        if (isnan(u))
            return u;
        if (u > top)
            top = u;
    }
    return top;
}

/* GeometryBundle.prox_into: x[i] = prox of z[i] + A*S[i] on the n
 * coordinates idx.  Returns 1 with *norm set on a non-finite input. */
static int settle(Window *st, const Py_ssize_t *idx, Py_ssize_t n, double A,
                  double *norm)
{
    for (Py_ssize_t t = 0; t < n; t++) {
        Py_ssize_t i = idx[t];
        double u = st->z[i] + A * st->S[i];
        if (!isfinite(u)) {
            *norm = max_abs_dual(st, idx, n, A);
            return 1;
        }
        u = (st->wx0[i] - u) / (st->w[i] + A * st->mu[i]);
        st->x[i] = u < st->lo[i] ? st->lo[i] : u > st->hi[i] ? st->hi[i] : u;
    }
    return 0;
}

/* comps[j].evaluate(x, out, at); -1 with the exception set on failure. */
static int evaluate(Window *st, Py_ssize_t j, PyObject *out, Py_ssize_t at)
{
    PyObject *pos = PyLong_FromSsize_t(at);
    if (pos == NULL)
        return -1;
    PyObject *args[4] = {PyList_GET_ITEM(st->comps, j), st->x_obj, out, pos};
    PyObject *res = PyObject_VectorcallMethod(evaluate_name, args, 4, NULL);
    Py_DECREF(pos);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* One draw as an index; -1 with the exception set on failure. */
static Py_ssize_t draw(PyObject *sample, PyObject *stream)
{
    PyObject *res = PyObject_CallOneArg(sample, stream);
    if (res == NULL)
        return -1;
    Py_ssize_t j = PyNumber_AsSsize_t(res, NULL);
    Py_DECREF(res);
    if (j == -1 && PyErr_Occurred())
        return -1;
    return j;
}

static int in_range(Py_ssize_t j, Py_ssize_t m)
{
    if (0 <= j && j < m)
        return 1;
    PyErr_Format(PyExc_IndexError,
                 "drawn component index %zd outside [0, %zd)", j, m);
    return 0;
}

#define DIVERGED(norm_) do { st->bad_k = k; st->bad_norm = (norm_); \
                             return 1; } while (0)

int rem_window(Window *st, Py_ssize_t k0, Py_ssize_t k1)
{
    if (evaluate_name == NULL) {
        evaluate_name = PyUnicode_InternFromString("evaluate");
        if (evaluate_name == NULL)
            return -1;
    }
    double *x = st->x, *z = st->z, *S = st->S, *values = st->values;
    const Py_ssize_t *offsets = st->offsets, *out_all = st->out_all;
    const Py_ssize_t *ent = st->ent;
    double norm = 0.0;
    for (Py_ssize_t k = k0; k <= k1; k++) {
        double a_prev = st->a[k - 1], A_prev = st->A[k - 1];
        double a = st->a[k], A = st->A[k];
        Py_ssize_t j2_prev = st->j2;
        Py_ssize_t j1 = draw(st->sample_p, st->draw);
        if (j1 == -1 && PyErr_Occurred())
            return -1;
        Py_ssize_t j2 = draw(st->sample_q, st->draw);
        if (j2 == -1 && PyErr_Occurred())
            return -1;
        if (!in_range(j1, st->m) || !in_range(j2, st->m))
            return -1;

        /* j1: catch up what it reads (lazy mode), evaluate, step the
         * entropy coordinates by a*S, correct z on its outputs by
         * (a_prev/p_j1) * (F_j1(x) - its value two iterations back, the
         * shadow if the last refresh was j1's), then prox the entropy
         * coordinates; at K, fhat is S plus j1's correction rescaled by
         * a_prev/(a*p_j1) */
        Py_ssize_t lo = st->r_offsets[j1];
        if (st->lazy && A_prev != 0.0
                && settle(st, st->r_all + lo, st->r_offsets[j1 + 1] - lo,
                          A_prev, &norm))
            DIVERGED(norm);
        if (evaluate(st, j1, st->scratch_obj, 0))
            return -1;
        for (Py_ssize_t t = 0; t < st->n_ent; t++)
            z[ent[t]] = z[ent[t]] + a * S[ent[t]];
        Py_ssize_t at = offsets[j1], n = offsets[j1 + 1] - at;
        double *fhat = k == st->K ? st->fhat : NULL;
        if (fhat != NULL)
            memcpy(fhat, S, st->d * sizeof(double));
        if (a_prev != 0.0) {
            double cj = a_prev / st->p[j1];
            double c = fhat != NULL ? a_prev / (a * st->p[j1]) : 0.0;
            const double *prev = j1 == j2_prev ? st->shadow : values + at;
            for (Py_ssize_t t = 0; t < n; t++) {
                Py_ssize_t i = out_all[at + t];
                double dv = st->scratch[t] - prev[t];
                z[i] = z[i] + cj * dv;
                if (fhat != NULL)
                    fhat[i] = fhat[i] + c * dv;
            }
        }
        if (st->n_ent) {
            for (Py_ssize_t t = 0; t < st->n_ent; t++)
                if (!isfinite(z[ent[t]]))
                    DIVERGED(max_abs(z, ent, st->n_ent));
            PyObject *res = PyObject_CallNoArgs(st->prox_ent);
            if (res == NULL)
                return -1;
            Py_DECREF(res);
        }

        /* j2: settle what it reads at A, refresh its slot, shift the base
         * on its Euclidean writes so that z + A*S stays where it was */
        lo = st->r_offsets[j2];
        if (settle(st, st->r_all + lo, st->r_offsets[j2 + 1] - lo, A, &norm))
            DIVERGED(norm);
        at = offsets[j2];
        n = offsets[j2 + 1] - at;
        lo = st->w_offsets[j2];
        Py_ssize_t n_eu = st->w_offsets[j2 + 1] - lo;
        const Py_ssize_t *out = out_all + at, *eu = st->w_all + lo;
        for (Py_ssize_t t = 0; t < n; t++)
            st->shadow[t] = values[at + t];
        for (Py_ssize_t t = 0; t < n_eu; t++)
            st->old[t] = S[eu[t]];
        st->j2 = j2;
        if (evaluate(st, j2, st->values_obj, at))
            return -1;
        st->eval_iter[j2] = k;
        for (Py_ssize_t t = 0; t < n; t++)
            S[out[t]] = S[out[t]] + (values[at + t] - st->shadow[t]);
        int finite = 1;
        for (Py_ssize_t t = 0; t < n_eu; t++) {
            Py_ssize_t i = eu[t];
            double b = z[i] - A * (S[i] - st->old[t]);
            z[i] = st->old[t] = b;
            finite &= isfinite(b) != 0;
        }
        if (!finite)
            DIVERGED(max_abs(st->old, NULL, n_eu));

        /* the Euclidean iterate at A: every iteration in dense mode and
         * with weighted-full averaging, else at the window's last
         * iteration (a window ends at a record or a pick) */
        if ((!st->lazy || st->wsum != NULL || k == k1)
                && settle(st, st->every, st->n_every, A, &norm))
            DIVERGED(norm);
        if (st->wsum != NULL) {
            double *wsum = st->wsum;
            for (Py_ssize_t i = 0; i < st->d; i++)
                wsum[i] = wsum[i] + a * x[i];
        }
    }
    return 0;
}

/* AliasTable's Vose loop (sampling.py), operation for operation: the last
 * large entry g absorbs the last smalls, sg -= 1.0 - ss each, until it
 * falls below 1 and is itself pushed as the next small.  scaled is the
 * table's p * m / sum(p) and is overwritten; small and large hold the
 * indices of the entries below 1 and of the rest, in increasing order, and
 * small is used as its stack (it never grows past its first size).  prob
 * and alias come in as all 1.0 and as 0..m-1; a leftover keeps those. */
void alias_build(double *scaled, Py_ssize_t *small, Py_ssize_t n_small,
                 const Py_ssize_t *large, Py_ssize_t n_large, double *prob,
                 Py_ssize_t *alias)
{
    while (n_small > 0 && n_large > 0) {
        Py_ssize_t g = large[--n_large];
        double sg = scaled[g];
        while (n_small > 0) {
            Py_ssize_t s = small[--n_small];
            double ss = scaled[s];
            prob[s] = ss;
            alias[s] = g;
            sg -= 1.0 - ss;
            if (sg < 1.0) {
                scaled[g] = sg;
                small[n_small++] = g;
                break;
            }
        }
    }
}

/* generate_lad's mask draw (problems._draw_mask) on numpy's PCG64: of the
 * next n uniforms of the generator whose 128-bit state and increment are
 * given (as high and low words), the indices t of those below density, in
 * increasing order, into hits (room for n).  Returns the number of hits;
 * the caller advances the generator by n.  Each uniform is numpy's: a step
 * s = M s + inc, the XSL-RR output of the new s, and next_double's
 * u = (out >> 11) * 2^-53.  Four states one draw apart step four draws at
 * a time, s_{t+4} = M^4 s_t + c_4 with c_4 = (M^3 + M^2 + M + 1) inc
 * (Brown's leapfrog), so the four products of a round do not wait for
 * each other. */
typedef unsigned __int128 u128;

static uint64_t pcg64_top53(u128 s)
{
    uint64_t v = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return ((v >> rot) | (v << (-rot & 63u))) >> 11;
}

Py_ssize_t lad_mask(uint64_t s_hi, uint64_t s_lo, uint64_t inc_hi,
                    uint64_t inc_lo, Py_ssize_t n, double density,
                    int64_t *hits)
{
    const u128 mult = (u128)0x2360ED051FC65DA4u << 64 | 0x4385DF649FCCF645u;
    const u128 inc = (u128)inc_hi << 64 | inc_lo;
    u128 s = (u128)s_hi << 64 | s_lo, lane[4], m4 = 1, c4 = 0;
    for (int i = 0; i < 4; i++) {
        s = s * mult + inc;
        lane[i] = s;
        m4 *= mult;
        c4 = c4 * mult + inc;
    }
    /* u = X * 2^-53 with X = out >> 11 is exact, and so is y = density *
     * 2^53, so u < density is X < y, which for an integer X is X < ceil(y)
     * (0 when density is not above 0, NaN included, and 2^53, every X,
     * from 1 on) */
    double y = density * 0x1p53;
    uint64_t cut = y > 0.0 ? y < 0x1p53 ? (uint64_t)ceil(y) : (uint64_t)1 << 53
                           : 0;
    /* a draw's index is stored at every draw and kept by counting it as a
     * hit: no branch on the draw */
    Py_ssize_t k = 0, t = 0;
    for (; t + 4 <= n; t += 4)
        for (int i = 0; i < 4; i++) {
            hits[k] = t + i;
            k += pcg64_top53(lane[i]) < cut;
            lane[i] = lane[i] * m4 + c4;
        }
    for (int i = 0; t < n; i++, t++) {
        hits[k] = t;
        k += pcg64_top53(lane[i]) < cut;
    }
    return k;
}

/* make_lad's component build: comps, a list of m Nones, gets in place k a
 * new cls whose slots hold what cls.__init__(zpos, ypos, a, bshare) stores,
 * zpos = coord[flat[2k]], ypos = coord[flat[2k + 1]], a = vals[k] as a new
 * float and bshare = share[flat[2k + 1] - d]: the shared int and float
 * objects themselves.  The object comes from cls's tp_alloc and its slots
 * are set through the offsets of cls's slot descriptors; __init__ is not
 * called.  It is left untracked by the cyclic collector.  Returns 0, or -1
 * with an exception set (the places not yet reached keep None). */
int lad_components(PyObject *cls, PyObject *comps, PyObject *coord,
                   PyObject *share, const Py_ssize_t *flat,
                   const double *vals, Py_ssize_t d)
{
    static const char *const names[4] = {"zpos", "ypos", "a", "bshare"};
    Py_ssize_t offset[4];
    if (!PyType_Check(cls) || !PyList_Check(comps) || !PyList_Check(coord)
            || !PyList_Check(share)) {
        PyErr_SetString(PyExc_TypeError,
                        "lad_components takes a type and three lists");
        return -1;
    }
    for (int i = 0; i < 4; i++) {
        PyObject *descr = PyObject_GetAttrString(cls, names[i]);
        if (descr == NULL)
            return -1;
        int slot = Py_IS_TYPE(descr, &PyMemberDescr_Type)
                   && ((PyMemberDescrObject *)descr)->d_member->type
                      == T_OBJECT_EX;
        if (slot)
            offset[i] = ((PyMemberDescrObject *)descr)->d_member->offset;
        Py_DECREF(descr);
        if (!slot) {
            PyErr_Format(PyExc_TypeError, "%s is not a slot of %R",
                         names[i], cls);
            return -1;
        }
    }
    PyTypeObject *tp = (PyTypeObject *)cls;
    Py_ssize_t m = PyList_GET_SIZE(comps), top = PyList_GET_SIZE(coord);
    if (d < 0 || top != d + PyList_GET_SIZE(share)) {
        PyErr_SetString(PyExc_ValueError,
                        "coord must hold d entries more than share");
        return -1;
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        Py_ssize_t zpos = flat[2 * k], ypos = flat[2 * k + 1];
        if (zpos < 0 || zpos >= d || ypos < d || ypos >= top) {
            PyErr_Format(PyExc_IndexError, "component %zd's coordinates "
                         "(%zd, %zd) outside the layout", k, zpos, ypos);
            return -1;
        }
        PyObject *a = PyFloat_FromDouble(vals[k]);
        if (a == NULL)
            return -1;
        PyObject *obj = tp->tp_alloc(tp, 0);
        if (obj == NULL) {
            Py_DECREF(a);
            return -1;
        }
        PyObject *slots[4] = {PyList_GET_ITEM(coord, zpos),
                              PyList_GET_ITEM(coord, ypos), a,
                              PyList_GET_ITEM(share, ypos - d)};
        for (int i = 0; i < 4; i++) {
            if (i != 2)
                Py_INCREF(slots[i]);
            *(PyObject **)((char *)obj + offset[i]) = slots[i];
        }
        /* the slots hold only ints and floats, so the object can be in no
         * cycle: the cyclic collector need not scan it */
        if (PyObject_IS_GC(obj))
            PyObject_GC_UnTrack(obj);
        PyObject *none = PyList_GET_ITEM(comps, k);
        PyList_SET_ITEM(comps, k, obj);
        Py_DECREF(none);
    }
    return 0;
}

/* empirical_full_lipschitz's pairs (operators.py) on a geometry without
 * simplex blocks and a CSR linear part M: per pair, the two points
 * sample_domain makes from its draws, d = x - y, ||d||^2 in the
 * geometry's weights, M d as scipy's csr_matvec forms it and its dual
 * norm, and the running max of the ratio.  The constants are
 * GeometryBundle._domain's, in the order of the Euclidean coordinates eu,
 * which are all n coordinates; boxed is NULL where no coordinate is
 * boxed.  M's index arrays are int64 where wide is set, else int32.
 * diff, mv and terms are work arrays of n doubles each. */
typedef struct {
    const Py_ssize_t *eu;
    const double *w, *lo, *hi, *x0, *lo_b, *span;
    const unsigned char *boxed;
    const void *indptr, *indices;
    const double *data;
    double *diff, *mv, *terms;
    Py_ssize_t n, wide;
    double moved;
    /* the largest ratio so far, -inf before any */
    double best;
} Pairs;

/* numpy's pairwise summation (pairwise_sum_DOUBLE): sequential below 8
 * terms, eight accumulators up to 128, else halves split at a multiple
 * of 8. */
static double pairwise(const double *a, Py_ssize_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        Py_ssize_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    Py_ssize_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.sum of n contiguous doubles: the reduction starts from 0.0 */
double sum_pairwise(const double *a, Py_ssize_t n)
{
    return 0.0 + pairwise(a, n);
}

/* Coordinate i of sample_domain's point from its normals g and uniforms u
 * (u[0:n] a sharp draw's move mask or an interior draw's place in the box,
 * u[n:2n] a sharp corner and u[2n:3n] whether it is taken), then np.clip's
 * max and min, which keep a NaN.  Each select reads values already loaded,
 * so that it needs no branch on a draw. */
static double domain_point(const Pairs *st, Py_ssize_t i, int sharp,
                           const double *g, const double *u)
{
    Py_ssize_t n = st->n;
    int boxed = st->boxed != NULL && st->boxed[i];
    double lo = st->lo[i], hi = st->hi[i], x0 = st->x0[i], v;
    if (sharp) {
        double moved = x0 + 3.0 * g[i];
        v = u[i] < st->moved ? moved : x0;
        if (boxed) {
            double corner = u[n + i] < 0.5 ? lo : hi;
            v = u[2 * n + i] < 0.5 ? corner : v;
        }
    } else {
        v = boxed ? st->lo_b[i] + u[i] * st->span[i] : x0 + g[i];
    }
    if (!isnan(v))
        v = v > lo ? v : lo;
    if (!isnan(v))
        v = v < hi ? v : hi;
    return v;
}

/* y = M x as scipy's csr_matvec forms it, each row summed from 0.0 in
 * stored order, for either index width; returns whether y is finite. */
#define CSR_MATVEC(name, I)                                                 \
    static int name(const Pairs *st, const double *x, double *y)           \
    {                                                                       \
        const I *ptr = st->indptr, *idx = st->indices;                      \
        int finite = 1;                                                     \
        for (Py_ssize_t r = 0; r < st->n; r++) {                            \
            double s = 0.0;                                                 \
            for (Py_ssize_t k = ptr[r]; k < ptr[r + 1]; k++)                \
                s += st->data[k] * x[idx[k]];                               \
            y[r] = s;                                                       \
            finite &= isfinite(s) != 0;                                     \
        }                                                                   \
        return finite;                                                      \
    }
CSR_MATVEC(csr_matvec32, int32_t)
CSR_MATVEC(csr_matvec64, int64_t)

/* Pairs t0..t0+count-1 from their draws: pair p's x from normals
 * noise[2p*n..] and uniforms unif[6p*n..], its y from the next rows
 * (n normals and 3n uniforms a row, of which sample_domain's are used).
 * Updates best and returns -1, or the first pair whose M d is not finite,
 * which the caller raises on. */
Py_ssize_t pair_ratio(Pairs *st, const double *noise, const double *unif,
                      Py_ssize_t t0, Py_ssize_t count)
{
    /* a copy, which the stores to the work arrays cannot alias */
    const Pairs c = *st;
    Py_ssize_t n = c.n;
    for (Py_ssize_t p = 0; p < count; p++) {
        int sharp = (int)((t0 + p) % 2);
        const double *g = noise + 2 * p * n, *u = unif + 6 * p * n;
        for (Py_ssize_t i = 0; i < n; i++) {
            double dv = domain_point(&c, i, sharp, g, u)
                        - domain_point(&c, i, sharp, g + n, u + 3 * n);
            c.diff[c.eu[i]] = dv;
            c.terms[i] = c.w[c.eu[i]] * (dv * dv);
        }
        double nrm = sum_pairwise(c.terms, n);
        if (nrm <= 0.0)
            continue;
        if (!(c.wide ? csr_matvec64 : csr_matvec32)(&c, c.diff, c.mv))
            return t0 + p;
        for (Py_ssize_t i = 0; i < n; i++) {
            double v = c.mv[c.eu[i]];
            c.terms[i] = (v * v) / c.w[c.eu[i]];
        }
        double r = sqrt(sum_pairwise(c.terms, n) / nrm);
        if (r > st->best)
            st->best = r;
    }
    return -1;
}
