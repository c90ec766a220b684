/* hostprof: an LD_PRELOAD sampling profiler for one single-threaded process.
 *
 * Every HOSTPROF_HZ-th of a second of CPU time (default 1000) SIGPROF
 * records the interrupted instruction pointer and walks the frame-pointer
 * chain up to MAX_FRAMES return addresses. At exit the process's memory
 * map and the samples go to HOSTPROF_OUT (default ./hostprof.out) for
 * symbolize.py. Build the target with frame pointers (see README.md).
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_FRAMES 24
#define MAX_WORDS (8u << 20) /* 64 MiB of address space, touched as used */

static uintptr_t *words; /* per sample: n, pc[0] (the rip), ..., pc[n-1] */
static size_t used;
static uintptr_t stack_lo, stack_hi; /* the main thread's stack */

static void on_prof(int sig, siginfo_t *info, void *uc_) {
    (void)sig, (void)info;
    const ucontext_t *uc = uc_;
    if (used + 1 + MAX_FRAMES > MAX_WORDS) return;
    uintptr_t *s = words + used, n = 0;
    s[++n] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    /* A frame is [saved rbp][return address]. Code built without frame
     * pointers (the precompiled std) leaves anything in rbp, so follow the
     * chain only while it stays on the stack, aligned and strictly rising. */
    if (sp >= stack_lo && sp < stack_hi) {
        while (n < MAX_FRAMES && fp > sp && fp + 16 <= stack_hi && fp % 8 == 0) {
            const uintptr_t *frame = (const uintptr_t *)fp;
            if (frame[1] < 4096) break;
            s[++n] = frame[1];
            if (frame[0] <= fp) break;
            fp = frame[0];
        }
    }
    s[0] = n;
    used += 1 + n;
}

static void copy_maps(FILE *out, int find_stack) {
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    while (maps && fgets(line, sizeof line, maps)) {
        if (find_stack && strstr(line, "[stack]"))
            sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
        if (out) fputs(line, out);
    }
    if (maps) fclose(maps);
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    if (!out) return;
    copy_maps(out, 0);
    fputs("--samples--\n", out);
    for (size_t i = 0; i < used; i += 1 + words[i]) {
        for (uintptr_t k = 1; k <= words[i]; k++) fprintf(out, "%lx ", words[i + k]);
        fputc('\n', out);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    const char *hz_env = getenv("HOSTPROF_HZ");
    long hz = hz_env ? atol(hz_env) : 1000;
    if (hz < 1 || hz > 10000) hz = 1000;
    words = malloc(MAX_WORDS * sizeof *words);
    if (!words) return;
    copy_maps(NULL, 1);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    atexit(dump);
    struct itimerval every = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &every, NULL);
}
