/*
 * One training pass of the tri-state bSOM on packed care/value planes.
 *
 * The compiled form of repro.core.bsom.BinarySom's NumPy pass, bit for bit:
 * the same winners, the same planes, and the map's random stream left
 * where the NumPy pass leaves it.  The caller holds the bit generator's
 * lock for the whole call.
 *
 * Layout (as repro.core.backends.pack_bits_to_words writes it): each row
 * is n_words uint64 words holding np.packbits bytes, so bit j of a row is
 * bit 7 - (j % 8) of byte j / 8.  Padding bits of the patterns and of the
 * value plane are zero.
 *
 * Per pattern x:
 *   - the winner is the lowest-index row with the fewest mismatches
 *     popcount(c & (v ^ x));
 *   - the winner takes its rule (full: every bit; commit: the # bits);
 *   - each neighbour, in ascending row order, takes the neighbour rule.
 *     The stochastic rule selects bit j of a row when the j-th of its
 *     n_bits draws is below the row's probability, which is the order
 *     Generator.random(out=) fills the rows of a run in;
 *   - the selected bits are updated in the rule's flip form
 *     (repro.core.tristate.tristate_update):
 *         m = c & (v ^ x);  f = s & ~(c ^ m);  v ^= f & (x ^ c);  c ^= f
 *
 * The flip word f is s & (~c | (v ^ x)): a bit that is committed and equal
 * to the input never flips, whatever its draw.  So the stochastic rule
 * takes a word's draws only at its live bits, ~c | (v ^ x), and jumps the
 * stream over the rest.  The stream is NumPy's PCG64, run here on its
 * 128-bit state: a step is s = MULTIPLIER * s + inc, a draw is the XSL-RR
 * output of the stepped state, and Generator.random() is that output's top
 * 53 bits times 2^-53.  k steps are one multiply-add, s = A[k] * s + C[k]
 * (Brown, "Random Number Generation with Arbitrary Strides", 1994), so
 * draw j of a word is the output of A[j + 1] * s + C[j + 1] from the
 * word's starting state, and the word moves the stream by its full draw
 * count.  A draw is below probability p exactly when its top 53 bits, as
 * an integer, are below ceil(p * 2^53), the row's threshold.
 *
 * The neighbourhood at the pass's radius comes flattened: the neighbours
 * of winner w are rows[offsets[w] .. offsets[w + 1]], in ascending order,
 * with their thresholds beside them.  pcg holds the generator's state and
 * increment as high, low 64-bit words; the state words are advanced in
 * place.
 */
#include <stdint.h>

typedef unsigned __int128 u128;

enum { RULE_STOCHASTIC = 0, RULE_FULL = 1, RULE_COMMIT = 2 };

/* NumPy's PCG64 multiplier (PCG_DEFAULT_MULTIPLIER_128). */
static const u128 MULTIPLIER =
    ((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL;

/* The XSL-RR output of a stepped state. */
static uint64_t pcg_output(u128 state)
{
    uint64_t folded = (uint64_t)(state >> 64) ^ (uint64_t)state;
    unsigned rotation = (unsigned)(state >> 122);
    return (folded >> rotation) | (folded << (-rotation & 63));
}

static void update_word(uint64_t *care, uint64_t *value, uint64_t x, uint64_t select)
{
    uint64_t c = *care;
    uint64_t flip = select & ~(c ^ (c & (*value ^ x)));
    *value ^= flip & (x ^ c);
    *care = c ^ flip;
}

/* Where bit j (0-63) of a row's word sits in the word read as a native
 * integer: bit 7 - (j % 8) of byte j / 8.  The map is its own inverse. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define BIT_SHIFT(j) (63 - (j))
#else
#define BIT_SHIFT(j) ((j) ^ 7)
#endif

void bsom_train_pass(uint64_t *care, uint64_t *value, const uint64_t *patterns,
                     int64_t n_patterns, int64_t n_neurons, int64_t n_words,
                     int64_t n_bits, const int64_t *offsets, const int64_t *rows,
                     const uint64_t *thresholds, int32_t winner_rule,
                     int32_t neighbour_rule, uint64_t *pcg, int64_t *winners)
{
    u128 state = ((u128)pcg[0] << 64) | pcg[1];
    u128 increment = ((u128)pcg[2] << 64) | pcg[3];
    /* jump_mul[k] * s + jump_add[k] is the state k steps after s. */
    u128 jump_mul[65], jump_add[65];
    jump_mul[0] = 1;
    jump_add[0] = 0;
    for (int k = 1; k <= 64; ++k) {
        jump_mul[k] = jump_mul[k - 1] * MULTIPLIER;
        jump_add[k] = jump_add[k - 1] * MULTIPLIER + increment;
    }
    /* The last word's draws: n_bits - 64 * (n_words - 1) of them. */
    int last_draws = (int)(n_bits - 64 * (n_words - 1));
    uint64_t last_mask = 0;
    for (int j = 0; j < last_draws; ++j) {
        last_mask |= 1ULL << BIT_SHIFT(j);
    }

    for (int64_t step = 0; step < n_patterns; ++step) {
        const uint64_t *x = patterns + step * n_words;
        int64_t winner = 0;
        int64_t best = INT64_MAX;
        for (int64_t row = 0; row < n_neurons; ++row) {
            const uint64_t *c = care + row * n_words;
            const uint64_t *v = value + row * n_words;
            int64_t count = 0;
            for (int64_t w = 0; w < n_words; ++w) {
                count += __builtin_popcountll(c[w] & (v[w] ^ x[w]));
            }
            if (count < best) {
                best = count;
                winner = row;
            }
        }
        winners[step] = winner;

        uint64_t *c = care + winner * n_words;
        uint64_t *v = value + winner * n_words;
        for (int64_t w = 0; w < n_words; ++w) {
            update_word(c + w, v + w, x[w], winner_rule == RULE_FULL ? ~0ULL : ~c[w]);
        }

        for (int64_t k = offsets[winner]; k < offsets[winner + 1]; ++k) {
            c = care + rows[k] * n_words;
            v = value + rows[k] * n_words;
            for (int64_t w = 0; w < n_words; ++w) {
                uint64_t select;
                if (neighbour_rule == RULE_STOCHASTIC) {
                    int last = w == n_words - 1;
                    uint64_t live = (~c[w] | (v[w] ^ x[w])) & (last ? last_mask : ~0ULL);
                    select = 0;
                    while (live) {
                        int bit = __builtin_ctzll(live);
                        int draw = BIT_SHIFT(bit);
                        uint64_t out = pcg_output(jump_mul[draw + 1] * state + jump_add[draw + 1]);
                        select |= (uint64_t)((out >> 11) < thresholds[k]) << bit;
                        live &= live - 1;
                    }
                    int draws = last ? last_draws : 64;
                    state = jump_mul[draws] * state + jump_add[draws];
                } else {
                    select = neighbour_rule == RULE_FULL ? ~0ULL : ~c[w];
                }
                update_word(c + w, v + w, x[w], select);
            }
        }
    }
    pcg[0] = (uint64_t)(state >> 64);
    pcg[1] = (uint64_t)state;
}
