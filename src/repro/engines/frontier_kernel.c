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
 *
 * Adjacency layout (`adjacency`, node2vec only): [0] directory length,
 * [1] segment offsets, [2] segment lengths, [3] each vertex's out-neighbour
 * ids, sorted ascending within its segment.
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
enum {
    WALK_DONE = 0,
    WALK_DECIMAL = 1,  /* a draw left Bingo decimal picks: resolve, call again */
    WALK_GROW = 2,     /* the next commit needs a wider matrix */
    WALK_REJECTED = 3, /* a node2vec step ran out of rejection rounds */
    WALK_NO_MEMORY = -1
};

/* frontier_walk state slots (an int64 array the caller keeps between calls). */
enum {
    S_ALIVE = 0,   /* walkers still stepping: the live prefix of walkers/vertices */
    S_STEPS = 1,   /* steps taken (committed columns after column 0) */
    S_MAX = 2,     /* walk length / max steps */
    S_COLUMNS = 3, /* current matrix width */
    S_PHASE = 4,   /* PHASE_*: where the walk resumes */
    S_PICKS = 5,   /* decimal picks written on a WALK_DECIMAL pause */
    S_SAMPLES = 6, /* draws requested so far (engine.samples_drawn) */
    S_WAITING = 7, /* node2vec: walkers still rejecting in this step */
    S_ROUNDS = 8,  /* node2vec: rejection rounds drawn in this step */
    S_ROUND_LIMIT = 9 /* node2vec: rounds allowed per step */
};

/* Walk phases (state[S_PHASE]). */
enum {
    PHASE_IDLE = 0,   /* no step in flight */
    PHASE_DRAWN = 1,  /* draws[0..alive) hold the step, uncommitted */
    PHASE_ROUND = 2,  /* draws[0..waiting) hold a rejection round's proposals
                       * for query[0..waiting), not yet tested */
    PHASE_REJECT = 3, /* the next rejection round is due */
    PHASE_RESOLVED = 4 /* resolved[0..alive) hold the node2vec step, uncommitted */
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

/* Whether `target` is an out-neighbour of `source`: a binary search in
 * `source`'s sorted adjacency segment (graph.has_arcs). */
static int has_arc(const int64_t *adjacency, int64_t source, int64_t target)
{
    if (source < 0 || source >= adjacency[0]) {
        return 0;
    }
    const int64_t *neighbors = (const int64_t *)(intptr_t)adjacency[3];
    int64_t lo = ((const int64_t *)(intptr_t)adjacency[1])[source];
    int64_t end = lo + ((const int64_t *)(intptr_t)adjacency[2])[source];
    int64_t hi = end;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (neighbors[mid] < target) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo < end && neighbors[lo] == target;
}

/* Whole DeepWalk (`termination_probability` 0), PPR or node2vec walks,
 * resumable.
 *
 * `walkers` / `vertices` hold the alive walkers' rows (ascending) and
 * positions in their first state[S_ALIVE] entries; `matrix` is the
 * rows x state[S_COLUMNS] walk matrix.  Each step mirrors
 * walks/frontier.py: PPR termination coins for every alive walker, one
 * draw_step, then the commit (column write, dead walkers compacted out).
 *
 * With `adjacency` non-NULL the walk is node2vec (run_frontier_node2vec):
 * step 0 is a plain draw, and every later step rejection-samples
 * Equation (1) (_node2vec_step).  A round draws for query[j] =
 * vertices[pending[j]], then tests each live proposal in order with one
 * uniform against factor / envelope, where factor is `inv_p` on a
 * backtrack, 1 when the proposal is an out-neighbour of the walker's
 * `previous` vertex and `inv_q` otherwise.  Accepted proposals land in
 * `resolved`; sinks resolve to -1; the rest stay pending.  `params` is
 * {termination_probability, inv_p, inv_q, envelope}.
 *
 * The call returns WALK_DECIMAL with a draw made but not used when a Bingo
 * pick needs the decimal sampler, WALK_GROW before a commit that needs a
 * wider matrix, and WALK_REJECTED when a node2vec step used up its
 * rejection rounds; the caller fixes the first two up and calls again. */
int64_t frontier_walk(const int64_t *tables, int64_t kind, void *bitgen,
                      int64_t *state, int64_t *matrix, int64_t *walkers,
                      int64_t *vertices, int64_t *draws, int64_t *picks,
                      const int64_t *adjacency, int64_t *previous,
                      int64_t *pending, int64_t *resolved, int64_t *query,
                      const double *params)
{
    bitgen_t *generator = (bitgen_t *)bitgen;
    double termination_probability = params[0];
    int64_t alive = state[S_ALIVE];
    int64_t steps = state[S_STEPS];
    int64_t max_steps = state[S_MAX];
    int64_t columns = state[S_COLUMNS];
    int64_t phase = state[S_PHASE];
    int64_t samples = state[S_SAMPLES];
    int64_t waiting = state[S_WAITING];
    int64_t rounds = state[S_ROUNDS];
    int64_t result = WALK_DONE;
    int64_t *live = malloc((size_t)(alive > 0 ? alive : 1) * sizeof(int64_t));
    double *u = malloc((size_t)(alive > 0 ? alive : 1) * 3 * sizeof(double));
    if (live == NULL || u == NULL) {
        result = WALK_NO_MEMORY;
        goto out;
    }
    for (;;) {
        if (phase == PHASE_IDLE) {
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
            if (adjacency != NULL && steps > 0) {
                for (int64_t i = 0; i < alive; i++) {
                    resolved[i] = -1;
                    pending[i] = i;
                }
                waiting = alive;
                rounds = 0;
                phase = PHASE_REJECT;
                continue;
            }
            int64_t count = draw_step(tables, kind, generator, vertices, alive,
                                      draws, picks, live, u);
            samples += alive;
            phase = PHASE_DRAWN;
            if (count > 0) {
                state[S_PICKS] = count;
                result = WALK_DECIMAL;
                break;
            }
        }
        if (phase == PHASE_REJECT) {
            if (rounds >= state[S_ROUND_LIMIT]) {
                result = WALK_REJECTED;
                break;
            }
            for (int64_t j = 0; j < waiting; j++) {
                query[j] = vertices[pending[j]];
            }
            int64_t count = draw_step(tables, kind, generator, query, waiting,
                                      draws, picks, live, u);
            samples += waiting;
            rounds++;
            phase = PHASE_ROUND;
            if (count > 0) {
                state[S_PICKS] = count;
                result = WALK_DECIMAL;
                break;
            }
        }
        if (phase == PHASE_ROUND) {
            double inv_p = params[1];
            double inv_q = params[2];
            double envelope = params[3];
            int64_t still = 0;
            for (int64_t j = 0; j < waiting; j++) {
                int64_t drawn = draws[j];
                if (drawn < 0) {
                    continue; /* a sink: the walker dies this step */
                }
                int64_t walker = pending[j];
                int64_t before = previous[walker];
                double factor = has_arc(adjacency, before, drawn) ? 1.0 : inv_q;
                if (drawn == before) {
                    factor = inv_p;
                }
                if (generator->next_double(generator->state) < factor / envelope) {
                    resolved[walker] = drawn;
                } else {
                    pending[still++] = walker;
                }
            }
            waiting = still;
            phase = waiting > 0 ? PHASE_REJECT : PHASE_RESOLVED;
            continue;
        }
        /* PHASE_DRAWN or PHASE_RESOLVED: commit the step.  The frontier
         * widens its matrix when the next column reaches the edge
         * (WalkFrontier.ensure_columns). */
        if (steps + 2 >= columns && columns < max_steps + 1) {
            result = WALK_GROW;
            break;
        }
        const int64_t *next_vertices = phase == PHASE_DRAWN ? draws : resolved;
        steps++;
        phase = PHASE_IDLE;
        int64_t kept = 0;
        for (int64_t i = 0; i < alive; i++) {
            int64_t next = next_vertices[i];
            matrix[walkers[i] * columns + steps] = next;
            if (next >= 0) {
                walkers[kept] = walkers[i];
                if (adjacency != NULL) {
                    previous[kept] = vertices[i];
                }
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
    state[S_PHASE] = phase;
    state[S_SAMPLES] = samples;
    state[S_WAITING] = waiting;
    state[S_ROUNDS] = rounds;
    return result;
}
