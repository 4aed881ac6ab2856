/* The compiled sampling kernels, with the one copy of Philox they share.
 *
 * Trial t of a batch keyed by a seed draws from
 * ``Generator(Philox(SeedSequence(seed, spawn_key=(t,))))`` (``rng``).  A
 * kernel takes the seed as ``seed_words``, the five 32-bit words of
 * ``rng._seed_pool``: numpy's ``SeedSequence`` pool after the seed's words,
 * then its hash constant.  From them and t it derives the trial's Philox
 * key with the rest of the ``SeedSequence`` hash (``trial_key``), and runs
 * the trial from a fresh state (counter 0, empty buffer), drawing exactly
 * what the Python path draws from the trial's generator:
 *
 * - ``deal_decks`` shuffles decks as ``Generator.shuffle`` does and deals
 *   them with ties-allowed greedy patience (``patience``);
 * - ``draw_word`` draws one word's letters as ``Generator.integers(1, q + 1)``
 *   does (``words.random_words``, the random words of ``verify``);
 * - ``word_statistics`` draws a word's letters as
 *   ``Generator.integers(1, q + 1)`` does and reads off its LIS, its LDS
 *   and whether its Demazure product is w0 (``asymptotics``, word kernel);
 * - ``insert_word`` draws letters the same way and Hecke-inserts each one
 *   until the shape is final (``asymptotics``, shape kernel).
 *
 * Every kernel returns -1 when memory cannot be allocated.
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

/* numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
 * four words, hashed in with a running constant that does not depend on
 * the entropy, then read out with a second constant */
#define HASH_MULT_A 0x931E8875U
#define HASH_INIT_B 0x8B51F9DDU
#define HASH_MULT_B 0x58F38DEDU
#define MIX_MULT_L 0xCA01F9DDU
#define MIX_MULT_R 0x4973F715U

static uint32_t hashmix(uint32_t value, uint32_t *hash_const, uint32_t mult) {
    value ^= *hash_const;
    *hash_const *= mult;
    value *= *hash_const;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y) {
    uint32_t value = MIX_MULT_L * x - MIX_MULT_R * y;
    return value ^ value >> 16;
}

/* hash one entropy word past the pool into every pool word */
static void absorb(uint32_t *pool, uint32_t *hash_const, uint32_t word) {
    for (int dst = 0; dst < 4; dst++) {
        pool[dst] = mix(pool[dst], hashmix(word, hash_const, HASH_MULT_A));
    }
}

/* The Philox key of trial t, ``SeedSequence(seed, spawn_key=(t,))
 * .generate_state(2, uint64)``: the spawn key's words, t's low word and its
 * high word when there is one, join the seed's pool, and the pool is read
 * out as four words, paired little end first. */
void trial_key(const uint32_t *seed_words, uint64_t t, uint64_t *key) {
    uint32_t pool[4] = {seed_words[0], seed_words[1], seed_words[2], seed_words[3]};
    uint32_t hash_const = seed_words[4];
    absorb(pool, &hash_const, (uint32_t)t);
    if (t >> 32) {
        absorb(pool, &hash_const, (uint32_t)(t >> 32));
    }
    hash_const = HASH_INIT_B;
    uint32_t state[4];
    for (int i = 0; i < 4; i++) {
        state[i] = hashmix(pool[i], &hash_const, HASH_MULT_B);
    }
    key[0] = state[0] | (uint64_t)state[1] << 32;
    key[1] = state[2] | (uint64_t)state[3] << 32;
}

/* trial t's Philox in the state it starts in */
static philox trial_philox(const uint32_t *seed_words, uint64_t t) {
    philox s = {.buffer_pos = 4};
    trial_key(seed_words, t, s.key);
    return s;
}

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

/* uniform on 0..max: masked draws, rejected above max (numpy's
 * random_interval, which Generator.shuffle draws with) */
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

/* uniform on 0..max: Lemire's multiply-and-reject (ACM TOMS 2019), on
 * 32-bit draws below 2**32 (numpy's random_bounded_uint64_fill, which
 * Generator.integers draws with); max is q - 1 < 2**63, so max + 1 never
 * wraps */
static uint64_t bounded(philox *s, uint64_t max) {
    if (max == 0) {
        return 0;
    }
    if (max < 0xFFFFFFFFULL) {
        uint32_t range = (uint32_t)max + 1;
        uint64_t m = (uint64_t)next32(s) * range;
        if ((uint32_t)m < range) {
            uint32_t threshold = (UINT32_MAX - (uint32_t)max) % range;
            while ((uint32_t)m < threshold) {
                m = (uint64_t)next32(s) * range;
            }
        }
        return m >> 32;
    }
    if (max == 0xFFFFFFFFULL) {
        return next32(s);
    }
    uint64_t range = max + 1;
    unsigned __int128 m = (unsigned __int128)next64(s) * range;
    if ((uint64_t)m < range) {
        uint64_t threshold = (UINT64_MAX - max) % range;
        while ((uint64_t)m < threshold) {
            m = (unsigned __int128)next64(s) * range;
        }
    }
    return (uint64_t)(m >> 64);
}

/* the leftmost of ``count`` weakly increasing ``tops`` that is >= x, or
 * ``count`` when there is none: binary search, where a select, not a
 * branch, halves the range */
static int64_t leftmost_at_least(const int64_t *tops, int64_t count, int64_t x) {
    const int64_t *base = tops;
    for (int64_t n = count; n > 1; n -= n / 2) {
        base = base[n / 2 - 1] < x ? base + n / 2 : base;
    }
    return base - tops + (count > 0 && *base < x);
}

/* ``*values`` holds at least ``need`` entries afterwards, its capacity
 * ``*capacity`` doubled as often as that takes; 0, or -1 when it cannot */
static int reserve(int64_t **values, int64_t *capacity, int64_t need) {
    if (need <= *capacity) {
        return 0;
    }
    int64_t size = *capacity > 0 ? *capacity : 16;
    while (size < need) {
        size = size > INT64_MAX / 2 ? need : 2 * size;
    }
    if ((uint64_t)size > SIZE_MAX / sizeof(int64_t)) {
        return -1;
    }
    int64_t *grown = realloc(*values, (size_t)size * sizeof(int64_t));
    if (grown == NULL) {
        return -1;
    }
    *values = grown;
    *capacity = size;
    return 0;
}

/* --- patience: shuffle and deal a block of decks ------------------------
 *
 * The deck of each trial t of ``start .. start + decks - 1`` holds
 * ``copies`` cards of each rank 1..``ranks`` in order and is shuffled as
 * trial t's ``Generator.shuffle(deck)`` shuffles it.  It is
 * then dealt with ties-allowed greedy patience: each card goes on the
 * leftmost pile whose top is at least the card, else on a new rightmost
 * pile.  ``histogram[k]`` gains one for each deck that ends with k piles,
 * and ``size_sums[i]`` one for each card dealt on a pile i (0-based, left
 * to right).
 */
int deal_decks(const uint32_t *seed_words, uint64_t start, uint64_t decks, int64_t ranks,
               int64_t copies, int64_t *histogram, int64_t *size_sums) {
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
    for (uint64_t t = 0; t < decks; t++) {
        philox s = trial_philox(seed_words, start + t);
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
        int64_t piles = 0;
        for (int64_t i = 0; i < cards; i++) {
            int64_t pile = leftmost_at_least(tops, piles, deck[i]);
            piles += pile == piles;
            tops[pile] = deck[i];
            size_sums[pile]++;
        }
        histogram[piles]++;
    }
    free(deck);
    return 0;
}

/* --- one word's letters ------------------------------------------------ */

/* Trial ``trial`` draws ``n`` letters over 1..``q`` into ``out``, as its
 * ``Generator.integers(1, q + 1, size=n)`` draws them (``verify``'s random
 * words, ``words.random_words``). */
void draw_word(const uint32_t *seed_words, uint64_t trial, int64_t n, int64_t q, int64_t *out) {
    philox s = trial_philox(seed_words, trial);
    for (int64_t i = 0; i < n; i++) {
        out[i] = 1 + (int64_t)bounded(&s, (uint64_t)(q - 1));
    }
}

/* --- the word kernel ---------------------------------------------------- */

/* ties-allowed greedy patience: x covers the leftmost top >= x, else it
 * starts a new pile; the tops are grown on demand.  0, or -1 */
static int play(int64_t **tops, int64_t *capacity, int64_t *piles, int64_t x) {
    int64_t pile = leftmost_at_least(*tops, *piles, x);
    if (pile == *piles) {
        if (reserve(tops, capacity, pile + 1)) {
            return -1;
        }
        ++*piles;
    }
    (*tops)[pile] = x;
    return 0;
}

/* Trial start + t draws ``n`` letters over 1..``q``, as its
 * ``Generator.integers(1, q + 1, size=n)`` draws them, and writes
 * ``out[3t]``, the pile count of ties-allowed greedy patience on
 * them (the LIS), ``out[3t + 1]``, the same on the letters flipped as
 * q - x (the LDS), and ``out[3t + 2]``, 1 when their Demazure product is
 * w0 and 0 otherwise.  ``boxes`` is q(q+1)/2, the length of w0, or -1 when
 * that exceeds n and no word of n letters reaches w0.
 *
 * The Demazure product starts at the identity of 0..q and picks up s_x
 * whenever position x is an ascent, each time gaining one in length, so
 * it is w0 exactly when it picked up ``boxes`` of them. */
int word_statistics(const uint32_t *seed_words, uint64_t start, int64_t trials, int64_t n,
                    int64_t q, int64_t boxes, int64_t *out) {
    int64_t *up = NULL, *down = NULL, *perm = NULL;
    int64_t up_capacity = 0, down_capacity = 0;
    int status = -1;
    if (boxes >= 0 && (perm = malloc((size_t)(q + 1) * sizeof(int64_t))) == NULL) {
        goto done;
    }
    for (int64_t t = 0; t < trials; t++) {
        philox s = trial_philox(seed_words, start + (uint64_t)t);
        int64_t lis = 0, lds = 0, length = 0;
        for (int64_t i = 0; perm != NULL && i <= q; i++) {
            perm[i] = i;
        }
        for (int64_t i = 0; i < n; i++) {
            int64_t x = 1 + (int64_t)bounded(&s, (uint64_t)(q - 1));
            if (play(&up, &up_capacity, &lis, x) || play(&down, &down_capacity, &lds, q - x)) {
                goto done;
            }
            if (perm != NULL && perm[x - 1] < perm[x]) {
                int64_t value = perm[x];
                perm[x] = perm[x - 1];
                perm[x - 1] = value;
                length++;
            }
        }
        out[3 * t] = lis;
        out[3 * t + 1] = lds;
        out[3 * t + 2] = perm != NULL && length == boxes;
    }
    status = 0;
done:
    free(up);
    free(down);
    free(perm);
    return status;
}

/* --- the shape kernel --------------------------------------------------- */

/* An increasing tableau, row by row.  Each row and the list of rows grow
 * on demand, and a new trial reuses what earlier ones allocated. */
typedef struct {
    int64_t rows, slots;  /* rows in use, and rows allocated */
    int64_t *length, *capacity;  /* each allocated row's length and its entries */
    int64_t **row;
} tableau;

tableau *tableau_new(void) {
    return calloc(1, sizeof(tableau));
}

void tableau_free(tableau *t) {
    if (t == NULL) {
        return;
    }
    for (int64_t r = 0; r < t->slots; r++) {
        free(t->row[r]);
    }
    free(t->row);
    free(t->length);
    free(t->capacity);
    free(t);
}

/* the row lengths of the last ``insert_word``, top to bottom */
const int64_t *tableau_lengths(const tableau *t) {
    return t->length;
}

/* put x at the end of row r, which is a new bottom row when r == rows */
static int append(tableau *t, int64_t r, int64_t x) {
    if (r == t->slots) {
        int64_t slots = t->slots > 0 ? 2 * t->slots : 16;
        int64_t **row = realloc(t->row, (size_t)slots * sizeof(int64_t *));
        if (row == NULL) {
            return -1;
        }
        t->row = row;
        int64_t *length = realloc(t->length, (size_t)slots * sizeof(int64_t));
        if (length == NULL) {
            return -1;
        }
        t->length = length;
        int64_t *capacity = realloc(t->capacity, (size_t)slots * sizeof(int64_t));
        if (capacity == NULL) {
            return -1;
        }
        t->capacity = capacity;
        for (int64_t i = t->slots; i < slots; i++) {
            t->row[i] = NULL;
            t->capacity[i] = 0;
        }
        t->slots = slots;
    }
    if (r == t->rows) {
        t->length[r] = 0;
        t->rows++;
    }
    if (reserve(&t->row[r], &t->capacity[r], t->length[r] + 1)) {
        return -1;
    }
    t->row[r][t->length[r]++] = x;
    return 0;
}

/* Hecke-insert x, the step of ``insertion._insert``: 1 when it adds a box,
 * 0 when the shape stays, -1 when memory runs out.
 *
 * Bumping step: the smallest entry y > x is replaced by x when the left
 * and upper neighbours stay smaller; either way y drops to the next row.
 * Terminating step: x >= the whole row, and x is adjoined when that keeps
 * the tableau increasing. */
static int insert(tableau *t, int64_t x) {
    /* the column of the last bump: the entry below it exceeds the value
     * bumped from it, so the next bump lies at or left of it */
    int64_t column = INT64_MAX;
    for (int64_t r = 0;; r++) {
        if (r == t->rows) {
            /* the first entry of the row above is smaller than any value passed down */
            return append(t, r, x) ? -1 : 1;
        }
        int64_t *row = t->row[r], length = t->length[r];
        const int64_t *above = r > 0 ? t->row[r - 1] : NULL;
        if (x >= row[length - 1]) {
            if (row[length - 1] < x
                && (above == NULL || (t->length[r - 1] > length && above[length] < x))) {
                return append(t, r, x) ? -1 : 1;
            }
            return 0;
        }
        /* the leftmost entry > x: the row strictly increases */
        int64_t pos = leftmost_at_least(row, column < length ? column + 1 : length, x);
        pos += row[pos] == x;
        column = pos;
        int64_t y = row[pos];
        if ((pos == 0 || row[pos - 1] < x) && (above == NULL || above[pos] < x)) {
            row[pos] = x;
        }
        x = y;
    }
}

/* Draw up to ``n`` letters over 1..``q`` for trial ``trial``, as
 * ``word_statistics`` does, and Hecke-insert each into ``t``, emptied
 * first.  Stop early once ``boxes`` boxes are added: q(q+1)/2 is the
 * staircase(q), which holds every increasing tableau over 1..q, so the
 * shape is final (-1: never).  Returns the number of rows, whose lengths
 * ``tableau_lengths`` gives, or -1. */
int64_t insert_word(tableau *t, const uint32_t *seed_words, uint64_t trial, int64_t n,
                    int64_t q, int64_t boxes) {
    philox s = trial_philox(seed_words, trial);
    int64_t added = 0;
    t->rows = 0;
    for (int64_t i = 0; i < n && added != boxes; i++) {
        int step = insert(t, 1 + (int64_t)bounded(&s, (uint64_t)(q - 1)));
        if (step < 0) {
            return -1;
        }
        added += step;
    }
    return t->rows;
}
