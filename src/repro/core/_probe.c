/* Native bloomRF probe kernel: batched point and range lookups.
 *
 * One call resolves a whole batch against one filter.  The arithmetic is
 * the scalar reference walk of repro/core/bloomrf.py and repro/dyadic.py
 * (contains_point, two_path_range_lookup with _probe_bit/_probe_mask),
 * which the NumPy sweep also reproduces; the tests hold all three equal.
 *
 * ctypes releases the GIL around the call, so a Python thread may OR new
 * bits into a mutable filter meanwhile: aligned word loads are relaxed
 * atomics (a benign race, as in the paper's parallel filter).  Unaligned
 * word arrays only come from read-only mapped frames and use memcpy.
 *
 * Layer geometry arrives as BRF_FIELDS uint64 per PMHF layer (bottom-up);
 * seed "adds" are the precomputed splitmix64 increments seed*G + G.
 */
#include <stdint.h>
#include <string.h>

enum { F_LEVEL, F_OFFBITS, F_WORDBITS, F_NUMWORDS, F_SEGBASE, F_GUARD,
       F_GUARD_ADD, F_SEED0, F_NREP, BRF_FIELDS };

typedef struct {
    const uint64_t *geo, *adds, *bits, *exact;
    int bits_aligned, exact_aligned;
    int64_t nlayers;      /* PMHF layers; the exact bitmap is layer nlayers */
    uint64_t exact_level;
    uint64_t max_groups;  /* _MAX_MASK_GROUPS: wider mask probes say "maybe" */
} ctx_t;

int brf_fields(void) { return BRF_FIELDS; }

static inline uint64_t mix(uint64_t z, uint64_t add) {
    z += add;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static inline uint64_t shr(uint64_t x, uint64_t n) { return n >= 64 ? 0 : x >> n; }
static inline uint64_t low_mask(uint64_t n) { return n >= 64 ? ~0ULL : (1ULL << n) - 1; }

static inline uint64_t word(const uint64_t *w, int aligned, uint64_t i) {
    uint64_t v;
    if (aligned)
        return __atomic_load_n(w + i, __ATOMIC_RELAXED);
    memcpy(&v, (const char *)w + 8 * i, sizeof v);
    return v;
}

static inline int bit(const uint64_t *w, int aligned, uint64_t pos) {
    return (int)((word(w, aligned, pos >> 6) >> (pos & 63)) & 1);
}

static int any_in_range(const ctx_t *c, uint64_t lo, uint64_t hi) {
    uint64_t lw = lo >> 6, hw = hi >> 6;
    uint64_t lmask = ~0ULL << (lo & 63), hmask = ~0ULL >> (63 - (hi & 63));
    if (lw == hw)
        return (word(c->exact, c->exact_aligned, lw) & lmask & hmask) != 0;
    if (word(c->exact, c->exact_aligned, lw) & lmask) return 1;
    if (word(c->exact, c->exact_aligned, hw) & hmask) return 1;
    for (uint64_t i = lw + 1; i < hw; i++)
        if (word(c->exact, c->exact_aligned, i)) return 1;
    return 0;
}

static inline uint64_t level_of(const ctx_t *c, int64_t li) {
    return li == c->nlayers ? c->exact_level : c->geo[li * BRF_FIELDS + F_LEVEL];
}

/* Global bit position of `group`'s word under replica r of layer g. */
static inline uint64_t word_base(const uint64_t *g, const uint64_t *adds,
                                 uint64_t r, uint64_t group) {
    uint64_t wi = mix(group, adds[g[F_SEED0] + r]) % g[F_NUMWORDS];
    return g[F_SEGBASE] + wi * g[F_WORDBITS];
}

/* Covering probe: is the level-l_i prefix set under every replica? */
static int probe_bit(const ctx_t *c, int64_t li, uint64_t prefix) {
    if (li == c->nlayers)
        return bit(c->exact, c->exact_aligned, prefix);
    const uint64_t *g = c->geo + li * BRF_FIELDS;
    uint64_t group = prefix >> g[F_OFFBITS], mask = g[F_WORDBITS] - 1;
    uint64_t off = prefix & mask;
    if (g[F_GUARD] && (mix(group, g[F_GUARD_ADD]) & 1))
        off = mask - off;
    for (uint64_t r = 0; r < g[F_NREP]; r++)
        if (!bit(c->bits, c->bits_aligned, word_base(g, c->adds, r, group) + off))
            return 0;
    return 1;
}

/* Decomposition probe: may any key have a prefix in [p_lo, p_hi]? */
static int probe_mask(const ctx_t *c, int64_t li, uint64_t p_lo, uint64_t p_hi) {
    if (li == c->nlayers)
        return any_in_range(c, p_lo, p_hi);
    const uint64_t *g = c->geo + li * BRF_FIELDS;
    uint64_t ob = g[F_OFFBITS], omask = g[F_WORDBITS] - 1;
    uint64_t g_lo = p_lo >> ob, g_hi = p_hi >> ob;
    if (g_hi - g_lo >= c->max_groups)
        return 1;
    for (uint64_t group = g_lo;; group++) {
        uint64_t base = group << ob;
        uint64_t off_lo = (p_lo > base ? p_lo : base) - base;
        uint64_t off_hi = (p_hi < base + omask ? p_hi : base + omask) - base;
        if (g[F_GUARD] && (mix(group, g[F_GUARD_ADD]) & 1)) {
            uint64_t t = omask - off_hi;
            off_hi = omask - off_lo;
            off_lo = t;
        }
        uint64_t field = (~0ULL >> (63 - (off_hi - off_lo))) << off_lo;
        int hit = 1;
        for (uint64_t r = 0; r < g[F_NREP] && hit; r++) {
            uint64_t pos = word_base(g, c->adds, r, group);
            hit = ((word(c->bits, c->bits_aligned, pos >> 6) >> (pos & 63)) & field) != 0;
        }
        if (hit) return 1;
        if (group == g_hi) return 0;
    }
}

/* Algorithm 1, exactly as repro.dyadic.two_path_range_lookup walks it. */
static int range_one(const ctx_t *c, uint64_t lo, uint64_t hi) {
    int64_t top = c->nlayers - (c->exact ? 0 : 1);
    int both = 1, left = 0, right = 0;
    for (int64_t li = top; li >= 0; li--) {
        uint64_t level = level_of(c, li), lm = low_mask(level);
        int lalign = (lo & lm) == 0, ralign = (hi & lm) == lm;
        if (both) {
            uint64_t p_lo = shr(lo, level), p_hi = shr(hi, level);
            if (p_lo == p_hi) {
                if (lalign && ralign)  /* the query is this DI */
                    return probe_mask(c, li, p_lo, p_hi);
                if (!probe_bit(c, li, p_lo)) return 0;
                continue;
            }
            both = 0;  /* phase 2: the covering path splits */
            uint64_t m_lo = p_lo + 1, m_hi = p_hi - 1;
            if (lalign) m_lo = p_lo; else left = probe_bit(c, li, p_lo);
            if (ralign) m_hi = p_hi; else right = probe_bit(c, li, p_hi);
            if (m_lo <= m_hi && probe_mask(c, li, m_lo, m_hi)) return 1;
            if (!(left || right)) return 0;
            continue;
        }
        uint64_t parent = low_mask(level_of(c, li + 1));
        if (left) {
            uint64_t p_lo = shr(lo, level), p_j = shr(lo | parent, level);
            if (lalign) {
                if (probe_mask(c, li, p_lo, p_j)) return 1;
                left = 0;
            } else {
                if (p_lo < p_j && probe_mask(c, li, p_lo + 1, p_j)) return 1;
                left = probe_bit(c, li, p_lo);
            }
        }
        if (right) {
            uint64_t p_hi = shr(hi, level), p_j = shr(hi & ~parent, level);
            if (ralign) {
                if (probe_mask(c, li, p_j, p_hi)) return 1;
                right = 0;
            } else {
                if (p_j < p_hi && probe_mask(c, li, p_j, p_hi - 1)) return 1;
                right = probe_bit(c, li, p_hi);
            }
        }
        if (!(left || right)) return 0;
    }
    return 0;
}

static ctx_t make_ctx(const uint64_t *geo, int64_t nlayers, const uint64_t *adds,
                      const uint64_t *bits, const uint64_t *exact,
                      uint64_t exact_level, uint64_t max_groups) {
    ctx_t c = {geo, adds, bits, exact, ((uintptr_t)bits & 7) == 0,
               ((uintptr_t)exact & 7) == 0, nlayers, exact_level, max_groups};
    return c;
}

/* out[i] = contains_point(keys[i]); exact may be NULL. */
void brf_point(const uint64_t *geo, int64_t nlayers, const uint64_t *adds,
               const uint64_t *bits, const uint64_t *exact, uint64_t exact_level,
               const uint64_t *keys, int64_t n, uint8_t *out) {
    ctx_t c = make_ctx(geo, nlayers, adds, bits, exact, exact_level, 0);
    for (int64_t i = 0; i < n; i++) {
        uint64_t key = keys[i];
        int hit = !exact || bit(exact, c.exact_aligned, shr(key, exact_level));
        for (int64_t li = 0; li < nlayers && hit; li++)
            hit = probe_bit(&c, li, shr(key, geo[li * BRF_FIELDS + F_LEVEL]));
        out[i] = (uint8_t)hit;
    }
}

/* out[i] = contains_range(bounds[i][0], bounds[i][1]); bounds is (n, 2). */
void brf_range(const uint64_t *geo, int64_t nlayers, const uint64_t *adds,
               const uint64_t *bits, const uint64_t *exact, uint64_t exact_level,
               uint64_t max_groups, const uint64_t *bounds, int64_t n, uint8_t *out) {
    ctx_t c = make_ctx(geo, nlayers, adds, bits, exact, exact_level, max_groups);
    for (int64_t i = 0; i < n; i++)
        out[i] = (uint8_t)range_one(&c, bounds[2 * i], bounds[2 * i + 1]);
}
