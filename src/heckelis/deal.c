/* Shuffle and deal a block of decks: the compiled ``patience`` dealer.
 *
 * Deck t holds ``copies`` cards of each rank 1..``ranks`` in order and is
 * shuffled exactly as numpy's ``Generator(Philox(key)).shuffle(deck)``
 * shuffles it, for the Philox key ``keys[2t], keys[2t + 1]`` and a fresh
 * state (counter 0, empty buffer).  It is then dealt with ties-allowed
 * greedy patience: each card goes on the leftmost pile whose top is at
 * least the card, else on a new rightmost pile.  ``histogram[k]`` gains
 * one for each deck that ends with k piles, and ``size_sums[i]`` one for
 * each card dealt on a pile i (0-based, left to right).
 *
 * Returns 0, or -1 when the scratch array cannot be allocated.
 */

#include <stdint.h>
#include <stdlib.h>

/* Philox4x64-10 (Salmon, Moraes, Dror and Shaw, SC 2011), as numpy runs it */
#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL

typedef struct {
    uint64_t counter[4], key[2], buffer[4];
    int buffer_pos;  /* the next unread word of ``buffer``; 4 when it is spent */
    int has_half;
    uint32_t half;  /* the high half of the last word, read by the next 32-bit draw */
} philox;

static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi) {
    unsigned __int128 product = (unsigned __int128)a * b;
    *hi = (uint64_t)(product >> 64);
    return (uint64_t)product;
}

static void philox_block(philox *s) {
    uint64_t c0 = s->counter[0], c1 = s->counter[1], c2 = s->counter[2], c3 = s->counter[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    for (int round = 0; round < 10; round++) {
        uint64_t hi0, hi1;
        uint64_t lo0 = mulhilo(PHILOX_M0, c0, &hi0);
        uint64_t lo1 = mulhilo(PHILOX_M1, c2, &hi1);
        c0 = hi1 ^ c1 ^ k0;
        c1 = lo1;
        c2 = hi0 ^ c3 ^ k1;
        c3 = lo0;
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
    s->buffer[0] = c0;
    s->buffer[1] = c1;
    s->buffer[2] = c2;
    s->buffer[3] = c3;
}

static uint64_t next64(philox *s) {
    if (s->buffer_pos == 4) {
        /* the counter steps before each block, carrying across its words */
        for (int i = 0; i < 4 && ++s->counter[i] == 0; i++) {
        }
        philox_block(s);
        s->buffer_pos = 0;
    }
    return s->buffer[s->buffer_pos++];
}

static uint32_t next32(philox *s) {
    if (s->has_half) {
        s->has_half = 0;
        return s->half;
    }
    uint64_t word = next64(s);
    s->has_half = 1;
    s->half = (uint32_t)(word >> 32);
    return (uint32_t)word;
}

/* uniform on 0..max: masked draws, rejected above max (numpy's random_interval) */
static uint64_t interval(philox *s, uint64_t max) {
    if (max == 0) {
        return 0;
    }
    uint64_t mask = max, value;
    for (int shift = 1; shift < 64; shift *= 2) {
        mask |= mask >> shift;
    }
    if (max <= 0xFFFFFFFFULL) {
        while ((value = (next32(s) & mask)) > max) {
        }
    } else {
        while ((value = (next64(s) & mask)) > max) {
        }
    }
    return value;
}

int deal_decks(const uint64_t *keys, int64_t decks, int64_t ranks, int64_t copies,
               int64_t *histogram, int64_t *size_sums) {
    /* the deck, then the pile tops: ranks * (copies + 1) values */
    if (ranks < 1 || copies < 1 || copies > INT64_MAX / ranks - 1
        || (uint64_t)(ranks * (copies + 1)) > SIZE_MAX / sizeof(int64_t)) {
        return -1;
    }
    int64_t cards = ranks * copies;
    int64_t *deck = malloc((size_t)(cards + ranks) * sizeof(int64_t));
    if (deck == NULL) {
        return -1;
    }
    int64_t *tops = deck + cards;
    for (int64_t t = 0; t < decks; t++) {
        philox s = {.key = {keys[2 * t], keys[2 * t + 1]}, .buffer_pos = 4};
        for (int64_t r = 0, i = 0; r < ranks; r++) {
            for (int64_t c = 0; c < copies; c++) {
                deck[i++] = r + 1;
            }
        }
        for (int64_t i = cards - 1; i > 0; i--) {
            int64_t j = (int64_t)interval(&s, (uint64_t)i);
            int64_t card = deck[i];
            deck[i] = deck[j];
            deck[j] = card;
        }
        /* the tops weakly increase, so the pile, the first top >= the card,
         * is found by binary search; a select, not a branch, halves the range */
        int64_t piles = 0;
        for (int64_t i = 0; i < cards; i++) {
            int64_t card = deck[i];
            const int64_t *base = tops;
            for (int64_t n = piles; n > 1; n -= n / 2) {
                base = base[n / 2 - 1] < card ? base + n / 2 : base;
            }
            int64_t lo = base - tops + (piles > 0 && *base < card);
            piles += lo == piles;
            tops[lo] = card;
            size_sums[lo]++;
        }
        histogram[piles]++;
    }
    free(deck);
    return 0;
}
