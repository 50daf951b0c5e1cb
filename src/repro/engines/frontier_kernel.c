/*
 * Compiled frontier walk kernel for the fused engines (Bingo, KnightKing,
 * gSampler).
 *
 * The NumPy kernels in engines/{bingo,knightking,gsampler}.py are the
 * reference: every routine here repeats their arithmetic operation for
 * operation (the same float multiplies, truncations, clamps and
 * comparisons) and draws from the caller's NumPy bit generator in the same
 * order, so a walk matrix and the generator's final state are bitwise what
 * the NumPy path produces.  engines/compiled.py builds and loads this file
 * through ctypes; nothing here owns memory beyond one call.
 *
 * Table layout (`tables`, one int64 per field, addresses as integers):
 *   [0] directory length (vertices at or past it draw -1)
 *   [1] per-vertex segment offsets   [2] per-vertex segment lengths
 *   bingo:      [3] prob  [4] alias  [5] entry_offset  [6] entry_size
 *               [7] entry_decimal (bool bytes)  [8] flat_offset  [9] members
 *   knightking: [3] prob  [4] alias  [5] ids
 *   gsampler:   [3] cumulative  [4] ids
 */

#include <stdint.h>
#include <stdlib.h>

/* numpy/random/bitgen.h: the struct behind BitGenerator.ctypes.bit_generator. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

enum { KIND_BINGO = 0, KIND_KNIGHTKING = 1, KIND_GSAMPLER = 2 };

/* frontier_walk return codes. */
enum { WALK_DONE = 0, WALK_DECIMAL = 1, WALK_GROW = 2, WALK_NO_MEMORY = -1 };

/* frontier_walk state slots (an int64 array the caller keeps between calls). */
enum {
    S_ALIVE = 0,   /* walkers still stepping: the live prefix of walkers/vertices */
    S_STEPS = 1,   /* steps taken (committed columns after column 0) */
    S_MAX = 2,     /* walk length / max steps */
    S_COLUMNS = 3, /* current matrix width */
    S_PENDING = 4, /* 1: draws[0..alive) hold a drawn, uncommitted step */
    S_PICKS = 5,   /* decimal picks written on a WALK_DECIMAL pause */
    S_SAMPLES = 6  /* draws requested so far (engine.samples_drawn) */
};

#define PTR(type, index) ((type *)(intptr_t)tables[index])

static void fill_uniforms(bitgen_t *bitgen, double *out, int64_t count)
{
    for (int64_t i = 0; i < count; i++) {
        out[i] = bitgen->next_double(bitgen->state);
    }
}

/* Bingo: two-stage alias pick, then the member gather (engines/bingo.py).
 * A pick that lands in a decimal-group entry is left at -1 and its
 * position appended to `picks` for the caller's rejection sampler. */
static int64_t draw_bingo(const int64_t *tables, const int64_t *vertices,
                          const int64_t *live, int64_t width, const double *u,
                          int64_t *out, int64_t *picks)
{
    const int64_t *offset = PTR(const int64_t, 1);
    const int64_t *length = PTR(const int64_t, 2);
    const double *prob = PTR(const double, 3);
    const int64_t *alias = PTR(const int64_t, 4);
    const int64_t *entry_offset = PTR(const int64_t, 5);
    const int64_t *entry_size = PTR(const int64_t, 6);
    const uint8_t *entry_decimal = PTR(const uint8_t, 7);
    const int64_t *flat_offset = PTR(const int64_t, 8);
    const int64_t *members = PTR(const int64_t, 9);
    int64_t count = 0;
    for (int64_t k = 0; k < width; k++) {
        int64_t i = live[k];
        int64_t v = vertices[i];
        int64_t base = offset[v];
        int64_t bucket = base + (int64_t)(u[k] * (double)length[v]);
        int64_t chosen = u[width + k] < prob[bucket] ? bucket : base + alias[bucket];
        if (entry_decimal[chosen]) {
            out[i] = -1;
            picks[count++] = i;
            continue;
        }
        int64_t size = entry_size[chosen];
        int64_t slot = (int64_t)(u[2 * width + k] * (double)size);
        if (slot > size - 1) {
            slot = size - 1;
        }
        out[i] = members[flat_offset[v] + entry_offset[chosen] + slot];
    }
    return count;
}

/* KnightKing: one-level alias pick (engines/knightking.py). */
static void draw_knightking(const int64_t *tables, const int64_t *vertices,
                            const int64_t *live, int64_t width, const double *u,
                            int64_t *out)
{
    const int64_t *offset = PTR(const int64_t, 1);
    const int64_t *length = PTR(const int64_t, 2);
    const double *prob = PTR(const double, 3);
    const int64_t *alias = PTR(const int64_t, 4);
    const int64_t *ids = PTR(const int64_t, 5);
    for (int64_t k = 0; k < width; k++) {
        int64_t i = live[k];
        int64_t v = vertices[i];
        int64_t base = offset[v];
        int64_t bucket = base + (int64_t)(u[k] * (double)length[v]);
        int64_t chosen = u[width + k] < prob[bucket] ? bucket : base + alias[bucket];
        out[i] = ids[chosen];
    }
}

/* gSampler: bounded right-bisection over the segment's prefix sums
 * (engines/gsampler.py). */
static void draw_gsampler(const int64_t *tables, const int64_t *vertices,
                          const int64_t *live, int64_t width, const double *u,
                          int64_t *out)
{
    const int64_t *offset = PTR(const int64_t, 1);
    const int64_t *length = PTR(const int64_t, 2);
    const double *cumulative = PTR(const double, 3);
    const int64_t *ids = PTR(const int64_t, 4);
    for (int64_t k = 0; k < width; k++) {
        int64_t i = live[k];
        int64_t v = vertices[i];
        int64_t lo = offset[v];
        int64_t hi = lo + length[v] - 1;
        double draw = u[k] * cumulative[hi];
        while (lo < hi) {
            int64_t mid = (lo + hi) >> 1;
            if (cumulative[mid] <= draw) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        out[i] = ids[lo];
    }
}

/* One draw for each of the `count` entries of `vertices` into `out` (-1 for
 * sinks and out-of-range ids).  `live` and `u` are scratch of `count` and
 * 3 * `count` entries.  Returns the number of Bingo decimal picks. */
static int64_t draw_step(const int64_t *tables, int64_t kind, bitgen_t *bitgen,
                         const int64_t *vertices, int64_t count, int64_t *out,
                         int64_t *picks, int64_t *live, double *u)
{
    int64_t limit = tables[0];
    const int64_t *length = PTR(const int64_t, 2);
    int64_t width = 0;
    for (int64_t i = 0; i < count; i++) {
        int64_t v = vertices[i];
        if (v >= 0 && v < limit && length[v] > 0) {
            live[width++] = i;
        } else {
            out[i] = -1;
        }
    }
    if (width == 0) {
        return 0;
    }
    switch (kind) {
    case KIND_BINGO:
        fill_uniforms(bitgen, u, 3 * width);
        return draw_bingo(tables, vertices, live, width, u, out, picks);
    case KIND_KNIGHTKING:
        fill_uniforms(bitgen, u, 2 * width);
        draw_knightking(tables, vertices, live, width, u, out);
        return 0;
    default:
        fill_uniforms(bitgen, u, width);
        draw_gsampler(tables, vertices, live, width, u, out);
        return 0;
    }
}

/* One frontier step (`engine.sample_frontier`).  Returns the number of
 * decimal picks written to `picks`, or WALK_NO_MEMORY. */
int64_t frontier_step(const int64_t *tables, int64_t kind, void *bitgen,
                      const int64_t *vertices, int64_t count, int64_t *out,
                      int64_t *picks)
{
    if (count <= 0) {
        return 0;
    }
    int64_t *live = malloc((size_t)count * sizeof(int64_t));
    double *u = malloc((size_t)count * 3 * sizeof(double));
    int64_t result = WALK_NO_MEMORY;
    if (live != NULL && u != NULL) {
        result = draw_step(tables, kind, (bitgen_t *)bitgen, vertices, count,
                           out, picks, live, u);
    }
    free(live);
    free(u);
    return result;
}

/* Whole DeepWalk (`termination_probability` 0) or PPR walks, resumable.
 *
 * `walkers` / `vertices` hold the alive walkers' rows (ascending) and
 * positions in their first state[S_ALIVE] entries; `matrix` is the
 * rows x state[S_COLUMNS] walk matrix.  Each step mirrors
 * walks/frontier.py: PPR termination coins for every alive walker, one
 * draw_step, then the commit (column write, dead walkers compacted out).
 * The call returns WALK_DECIMAL with the step drawn but not committed when
 * a Bingo pick needs the decimal sampler, and WALK_GROW before a commit
 * that needs a wider matrix; the caller fixes either up and calls again. */
int64_t frontier_walk(const int64_t *tables, int64_t kind, void *bitgen,
                      int64_t *state, int64_t *matrix, int64_t *walkers,
                      int64_t *vertices, int64_t *draws, int64_t *picks,
                      double termination_probability)
{
    bitgen_t *generator = (bitgen_t *)bitgen;
    int64_t alive = state[S_ALIVE];
    int64_t steps = state[S_STEPS];
    int64_t max_steps = state[S_MAX];
    int64_t columns = state[S_COLUMNS];
    int64_t pending = state[S_PENDING];
    int64_t samples = state[S_SAMPLES];
    int64_t result = WALK_DONE;
    int64_t *live = malloc((size_t)(alive > 0 ? alive : 1) * sizeof(int64_t));
    double *u = malloc((size_t)(alive > 0 ? alive : 1) * 3 * sizeof(double));
    if (live == NULL || u == NULL) {
        result = WALK_NO_MEMORY;
        goto out;
    }
    for (;;) {
        if (!pending) {
            if (steps >= max_steps || alive == 0) {
                break;
            }
            if (termination_probability > 0.0) {
                int64_t kept = 0;
                for (int64_t i = 0; i < alive; i++) {
                    if (generator->next_double(generator->state) >= termination_probability) {
                        walkers[kept] = walkers[i];
                        vertices[kept] = vertices[i];
                        kept++;
                    }
                }
                alive = kept;
                if (alive == 0) {
                    break;
                }
            }
            int64_t count = draw_step(tables, kind, generator, vertices, alive,
                                      draws, picks, live, u);
            samples += alive;
            pending = 1;
            if (count > 0) {
                state[S_PICKS] = count;
                result = WALK_DECIMAL;
                break;
            }
        }
        /* The frontier widens its matrix when the next column reaches
         * the edge (WalkFrontier.ensure_columns). */
        if (steps + 2 >= columns && columns < max_steps + 1) {
            result = WALK_GROW;
            break;
        }
        steps++;
        pending = 0;
        int64_t kept = 0;
        for (int64_t i = 0; i < alive; i++) {
            int64_t next = draws[i];
            matrix[walkers[i] * columns + steps] = next;
            if (next >= 0) {
                walkers[kept] = walkers[i];
                vertices[kept] = next;
                kept++;
            }
        }
        alive = kept;
    }
out:
    free(live);
    free(u);
    state[S_ALIVE] = alive;
    state[S_STEPS] = steps;
    state[S_PENDING] = pending;
    state[S_SAMPLES] = samples;
    return result;
}
