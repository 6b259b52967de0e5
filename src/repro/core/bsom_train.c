/*
 * One training pass of the tri-state bSOM on packed care/value planes.
 *
 * The compiled form of repro.core.bsom.BinarySom's NumPy pass, bit for bit:
 * the same winners, the same planes, and the same draws from the map's
 * random stream, taken in the same order.  The caller holds the bit
 * generator's lock for the whole call.
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
 * The neighbourhood at the pass's radius comes flattened: the neighbours
 * of winner w are rows[offsets[w] .. offsets[w + 1]], in ascending order,
 * with their probabilities beside them.
 */
#include <stdint.h>

typedef double (*next_double_fn)(void *state);

enum { RULE_STOCHASTIC = 0, RULE_FULL = 1, RULE_COMMIT = 2 };

static void update_word(uint64_t *care, uint64_t *value, uint64_t x, uint64_t select)
{
    uint64_t c = *care;
    uint64_t flip = select & ~(c ^ (c & (*value ^ x)));
    *value ^= flip & (x ^ c);
    *care = c ^ flip;
}

/* Where bit j (0-63) of a row's word sits in the word read as a native
 * integer: bit 7 - (j % 8) of byte j / 8. */
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define BIT_SHIFT(j) (63 - (j))
#else
#define BIT_SHIFT(j) ((j) ^ 7)
#endif

/* The select word of a row's next n_bits (at most 64) draws: each draw
 * below the probability sets its bit, without a branch. */
static uint64_t drawn_word(int64_t n_bits, double probability,
                           next_double_fn next_double, void *state)
{
    uint64_t word = 0;
    for (int64_t bit = 0; bit < n_bits; ++bit) {
        word |= (uint64_t)(next_double(state) < probability) << BIT_SHIFT(bit);
    }
    return word;
}

void bsom_train_pass(uint64_t *care, uint64_t *value, const uint64_t *patterns,
                     int64_t n_patterns, int64_t n_neurons, int64_t n_words,
                     int64_t n_bits, const int64_t *offsets, const int64_t *rows,
                     const double *probabilities, int32_t winner_rule,
                     int32_t neighbour_rule, next_double_fn next_double,
                     void *state, int64_t *winners)
{
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
                    int64_t bits = n_bits - 64 * w;
                    select = drawn_word(bits < 64 ? bits : 64, probabilities[k],
                                        next_double, state);
                } else {
                    select = neighbour_rule == RULE_FULL ? ~0ULL : ~c[w];
                }
                update_word(c + w, v + w, x[w], select);
            }
        }
    }
}
