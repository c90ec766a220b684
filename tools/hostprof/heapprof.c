/* heapprof: an LD_PRELOAD live-heap sampler for one process.
 *
 * Every allocation is charged against a byte countdown whose intervals are
 * drawn from an exponential distribution with mean SAMPLE_BYTES (16 KiB),
 * so an allocation of s bytes carries s / 16 KiB samples on average
 * whatever its size. A block that carries any keeps them, with the
 * frame-pointer chain of its allocation, while it is live. Whenever the
 * live heap (malloc_usable_size summed over live blocks) reaches a new
 * high-water mark, the per-stack sample counts are snapshotted. At exit
 * the snapshot goes to HEAPPROF_OUT (default ./heapprof.out) in hostprof's
 * format, the process's memory map and then one line of return addresses
 * per sample, so symbolize.py reads it: one sample is 16 KiB live at the
 * peak. The countdown starts from a fixed seed, so a deterministic program
 * gives the same profile on every run. Build the target with frame
 * pointers (see README.md).
 *
 * HEAPPROF_MODE=count asks who allocates instead of who holds: every
 * allocation (malloc, calloc, realloc, the aligned ones) is sampled with
 * probability 1/COUNT_EVERY whatever its size and lifetime, and the
 * samples are kept for good, so one sample is COUNT_EVERY allocations made
 * over the whole run. Same output format, same seeded generator.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <malloc.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define SAMPLE_BYTES 16384.0
#define COUNT_EVERY 16 /* count mode: allocations per sample, a power of 2 */
#define MAX_FRAMES 24
#define STACK_BITS 16 /* interned allocation stacks */
#define LIVE_BITS 18  /* sampled blocks live at once */
#define MAX_STACKS (1u << STACK_BITS)
#define LIVE_SLOTS (1u << LIVE_BITS)

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

/* Interned stacks: frames[id][0] = n, then n return addresses. */
static uintptr_t frames[MAX_STACKS][MAX_FRAMES + 1];
static uint32_t stack_slot[2 * MAX_STACKS]; /* id + 1 by hash, 0 = empty */
static uint32_t n_stacks;
static uint32_t live_count[MAX_STACKS], peak_count[MAX_STACKS];

/* Sampled live blocks, open addressing by pointer. */
static struct {
    void *p;
    uint32_t stack, samples;
} live[LIVE_SLOTS];
static uint32_t n_live;

static int64_t live_bytes, peak_bytes, countdown;
static uint64_t dropped, rng = 0x9e3779b97f4a7c15u;
static uint64_t allocs; /* count mode: allocations seen */
static int dirty, ready; /* dirty: live_count differs from peak_count */
static int count_mode;   /* HEAPPROF_MODE=count: peak_count holds totals */
static uintptr_t stack_hi; /* top of the main thread's stack */
static char lock;
static __thread int inside __attribute__((tls_model("initial-exec")));

static uint64_t next(void) {
    rng ^= rng << 13, rng ^= rng >> 7, rng ^= rng << 17;
    return rng;
}

static int64_t interval(void) {
    double u = ((next() >> 11) + 1) * 0x1p-53; /* (0, 1] */
    return (int64_t)(-log(u) * SAMPLE_BYTES) + 1;
}

static uint64_t mix(uint64_t x) { return x * 0x9e3779b97f4a7c15u; }

static size_t home(const void *p) { return mix((uintptr_t)p >> 4) >> (64 - LIVE_BITS); }

/* Return addresses from the wrapper's frame up; the chain is followed only
 * on the main thread's stack, aligned and strictly rising (code built
 * without frame pointers leaves anything in rbp). */
static uint32_t walk(uintptr_t *pcs, uintptr_t fp) {
    int on_stack = fp < stack_hi && stack_hi - fp < (64u << 20);
    uint32_t n = 0;
    while (n < MAX_FRAMES) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (frame[1] < 4096) break;
        pcs[n++] = frame[1];
        if (!on_stack || frame[0] <= fp || frame[0] + 16 > stack_hi || frame[0] % 8) break;
        fp = frame[0];
    }
    return n;
}

/* The id of this stack, interned; MAX_STACKS if the table is full. */
static uint32_t intern(const uintptr_t *pcs, uint32_t n) {
    uint64_t h = n;
    for (uint32_t i = 0; i < n; i++) h = mix(h ^ pcs[i]);
    for (size_t i = h >> (64 - STACK_BITS - 1);; i = (i + 1) % (2 * MAX_STACKS)) {
        uint32_t id = stack_slot[i];
        if (!id) break;
        if (frames[id - 1][0] == n && !memcmp(frames[id - 1] + 1, pcs, n * sizeof *pcs))
            return id - 1;
    }
    if (n_stacks == MAX_STACKS) return MAX_STACKS;
    uint32_t id = n_stacks++;
    frames[id][0] = n;
    memcpy(frames[id] + 1, pcs, n * sizeof *pcs);
    for (size_t i = h >> (64 - STACK_BITS - 1);; i = (i + 1) % (2 * MAX_STACKS))
        if (!stack_slot[i]) {
            stack_slot[i] = id + 1;
            return id;
        }
}

static void take(void) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE)) {
    }
}

static void give(void) { __atomic_clear(&lock, __ATOMIC_RELEASE); }

/* Count mode: charge one allocation in COUNT_EVERY, drawn at random, to
 * its stack for the rest of the run. */
static void count_alloc(uintptr_t fp) {
    allocs++;
    if (!ready || next() % COUNT_EVERY) return;
    uintptr_t pcs[MAX_FRAMES];
    uint32_t id = intern(pcs, walk(pcs, fp));
    if (id == MAX_STACKS)
        dropped++;
    else
        peak_count[id]++;
}

static void on_alloc(void *p, size_t size, uintptr_t fp) {
    if (!p || inside) return;
    take();
    if (count_mode) {
        count_alloc(fp);
        give();
        return;
    }
    live_bytes += malloc_usable_size(p);
    if (ready && (countdown -= size) <= 0) {
        uint32_t k = 0;
        while (countdown <= 0) k++, countdown += interval();
        uintptr_t pcs[MAX_FRAMES];
        uint32_t id = intern(pcs, walk(pcs, fp));
        if (id == MAX_STACKS || n_live >= LIVE_SLOTS / 4 * 3) {
            dropped += k;
        } else {
            size_t i = home(p);
            while (live[i].p) i = (i + 1) % LIVE_SLOTS;
            live[i].p = p, live[i].stack = id, live[i].samples = k;
            n_live++;
            live_count[id] += k;
            dirty = 1;
        }
    }
    if (live_bytes > peak_bytes) {
        peak_bytes = live_bytes;
        if (dirty) memcpy(peak_count, live_count, n_stacks * sizeof *live_count), dirty = 0;
    }
    give();
}

static void on_free(void *p) {
    if (!p || inside || count_mode) return;
    take();
    live_bytes -= malloc_usable_size(p);
    size_t i = home(p);
    while (n_live && live[i].p && live[i].p != p) i = (i + 1) % LIVE_SLOTS;
    if (n_live && live[i].p == p) {
        live_count[live[i].stack] -= live[i].samples;
        n_live--;
        dirty = 1;
        /* Backward-shift deletion keeps every probe chain unbroken. */
        for (size_t j = i;;) {
            j = (j + 1) % LIVE_SLOTS;
            if (!live[j].p) break;
            size_t k = home(live[j].p);
            if (i <= j ? (k <= i || k > j) : (k <= i && k > j)) live[i] = live[j], i = j;
        }
        live[i].p = NULL;
    }
    give();
}

void *malloc(size_t size) {
    void *p = __libc_malloc(size);
    on_alloc(p, size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

void *calloc(size_t n, size_t size) {
    void *p = __libc_calloc(n, size);
    on_alloc(p, n * size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

void *realloc(void *old, size_t size) {
    on_free(old);
    void *p = __libc_realloc(old, size);
    /* A failed realloc leaves the old block live; it carries no samples. */
    on_alloc(p ? p : (size ? old : NULL), p ? size : 0, (uintptr_t)__builtin_frame_address(0));
    return p;
}

void free(void *p) {
    on_free(p);
    __libc_free(p);
}

void *memalign(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    on_alloc(p, size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

void *aligned_alloc(size_t align, size_t size) {
    void *p = __libc_memalign(align, size);
    on_alloc(p, size, (uintptr_t)__builtin_frame_address(0));
    return p;
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (!align || align % sizeof(void *) || (align & (align - 1))) return EINVAL;
    void *p = __libc_memalign(align, size);
    if (!p) return ENOMEM;
    on_alloc(p, size, (uintptr_t)__builtin_frame_address(0));
    *out = p;
    return 0;
}

static void dump(void) {
    inside = 1;
    take();
    const char *path = getenv("HEAPPROF_OUT");
    path = path ? path : "heapprof.out";
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (out && maps && fgets(line, sizeof line, maps)) fputs(line, out);
    if (maps) fclose(maps);
    uint64_t samples = 0;
    if (out) {
        fputs("--samples--\n", out);
        for (uint32_t id = 0; id < n_stacks; id++) {
            /* The first address is the call into the allocator itself,
             * which symbolize.py reads as an instruction pointer. */
            for (uint32_t c = 0; c < peak_count[id]; c++, samples++) {
                for (uintptr_t k = 1; k <= frames[id][0]; k++)
                    fprintf(out, "%lx ", frames[id][k] - (k == 1));
                fputc('\n', out);
            }
        }
        fclose(out);
    }
    if (count_mode)
        fprintf(stderr,
                "heapprof: %lu allocations; %lu samples of %d allocations (%lu) to %s, %lu "
                "dropped\n",
                allocs, samples, COUNT_EVERY, samples * COUNT_EVERY,
                out ? path : "(unwritable)", dropped);
    else
        fprintf(stderr,
                "heapprof: live-heap peak %.1f MiB; %lu samples of 16 KiB (%.1f MiB) to %s, %lu "
                "dropped\n",
                peak_bytes / 1048576.0, samples, samples / 64.0, out ? path : "(unwritable)",
                dropped);
    give();
}

__attribute__((constructor)) static void start(void) {
    inside = 1;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps))
        if (strstr(line, "[stack]")) sscanf(line, "%*x-%lx", &stack_hi);
    if (maps) fclose(maps);
    const char *mode = getenv("HEAPPROF_MODE");
    count_mode = mode && !strcmp(mode, "count");
    inside = 0;
    countdown = interval();
    ready = 1;
    atexit(dump);
}
