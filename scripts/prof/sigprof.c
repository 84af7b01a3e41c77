/* Sampling profiler for boxes without a PMU: preload this object and it
 * samples the program counter on a CPU-time timer (SIGPROF), then dumps
 * the samples with the process's memory map when the process exits.
 *
 *   SIGPROF_OUT    directory for the dumps (required; one file per pid)
 *   SIGPROF_MATCH  only profile processes whose command line contains
 *                  this string (the preload is inherited by children)
 *
 * Dump format: /proc/self/maps verbatim, a line "--", then one sampled
 * pc per line in hex. scripts/prof/symbolise.py turns dumps into a
 * table of symbols. Used by scripts/prof.sh. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 18) /* 4.4 minutes of CPU time at 1 kHz */
static uintptr_t samples[MAX_SAMPLES];
static unsigned n_samples;
static int armed;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof.c: no program-counter accessor for this architecture"
#endif
    unsigned i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) samples[i] = pc;
}

static int cmdline_matches(const char *want) {
    char buf[4096];
    FILE *f = fopen("/proc/self/cmdline", "r");
    if (!f) return 0;
    size_t n = fread(buf, 1, sizeof buf - 1, f);
    fclose(f);
    for (size_t i = 0; i < n; i++) if (!buf[i]) buf[i] = ' ';
    buf[n] = 0;
    return strstr(buf, want) != NULL;
}

__attribute__((constructor)) static void arm(void) {
    const char *match = getenv("SIGPROF_MATCH");
    if (!getenv("SIGPROF_OUT") || (match && !cmdline_matches(match))) return;
    struct sigaction sa = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    armed = sigaction(SIGPROF, &sa, NULL) == 0 && setitimer(ITIMER_PROF, &tick, NULL) == 0;
}

__attribute__((destructor)) static void dump(void) {
    if (!armed) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[4096], line[4096];
    snprintf(path, sizeof path, "%s/%d.prof", getenv("SIGPROF_OUT"), (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fputs("--\n", out);
    unsigned n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned i = 0; i < n; i++) fprintf(out, "%lx\n", (unsigned long)samples[i]);
    fclose(maps);
    fclose(out);
}
