/* Sampling profiler for boxes without a PMU: preload this object and it
 * samples the program counter and its callers on a CPU-time timer
 * (SIGPROF), then dumps the samples with the process's memory map when
 * the process exits.
 *
 *   SIGPROF_OUT    directory for the dumps (required; one file per pid)
 *   SIGPROF_MATCH  only profile processes whose command line contains
 *                  this string (the preload is inherited by children)
 *
 * A sample is the pc plus up to MAX_CALLERS return addresses. Callers
 * come from the frame-pointer chain (rbp / x29), followed only inside a
 * bounded window above the stack pointer, so build the profiled program
 * with `-C force-frame-pointers=yes`. libc has no frame pointers: for a
 * pc inside it, the first word on the stack that points into the
 * executable's text stands in for the caller. Every stack read goes
 * through process_vm_readv, which answers a bad address with an error
 * instead of a fault.
 *
 * Dump format: /proc/self/maps verbatim, a line "--", then one sample per
 * line, its addresses in hex separated by spaces, pc first.
 * scripts/prof/symbolise.py turns dumps into tables of symbols. Used by
 * scripts/prof.sh. */
#define _GNU_SOURCE
#include <errno.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 18) /* 4.4 minutes of CPU time at 1 kHz */
#define MAX_CALLERS 12
#define FRAME_WINDOW (256u << 10) /* how far above sp a frame may lie */
#define SCAN_WORDS 256            /* how many words above sp a libc caller may lie */
#define CHUNK 32                  /* words read per call in that scan */
#define MAX_RANGES 8

struct range { uintptr_t lo, hi; };
static struct range exe_text[MAX_RANGES], libc_text[MAX_RANGES];
static int n_exe, n_libc;
static uintptr_t samples[MAX_SAMPLES][1 + MAX_CALLERS];
static unsigned n_samples;
static int armed;

static int in(const struct range *r, int n, uintptr_t a) {
    for (int i = 0; i < n; i++) if (r[i].lo <= a && a < r[i].hi) return 1;
    return 0;
}

/* Copy n bytes at addr of process pid (this one) into buf; 0 on
 * success, -1 for an unmapped address. */
static int peek(pid_t pid, uintptr_t addr, void *buf, size_t n) {
    struct iovec local = {buf, n}, remote = {(void *)addr, n};
    return process_vm_readv(pid, &local, 1, &remote, 1, 0) == (ssize_t)n ? 0 : -1;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    ucontext_t *uc = ctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.sp;
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
#else
#error "sigprof.c: no register accessors for this architecture"
#endif
    unsigned i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) return;
    int saved_errno = errno; /* the system calls below may set it */
    pid_t pid = getpid();
    uintptr_t *frames = samples[i];
    int n = 0;
    frames[n++] = pc;
    if (in(libc_text, n_libc, pc)) {
        uintptr_t w[CHUNK];
        for (unsigned off = 0; off < SCAN_WORDS && n == 1; off += CHUNK) {
            if (peek(pid, sp + off * sizeof(uintptr_t), w, sizeof w)) break;
            for (unsigned k = 0; k < CHUNK; k++)
                if (in(exe_text, n_exe, w[k])) { frames[n++] = w[k]; break; }
        }
    }
    /* A frame record is {caller's frame pointer, return address}; each
     * lies above the last, and all within the window. The first may sit
     * at sp itself: a leaf with no locals pushes only the record. */
    while (n <= MAX_CALLERS && fp >= sp && fp - sp < FRAME_WINDOW && !(fp % sizeof(uintptr_t))) {
        uintptr_t record[2];
        if (peek(pid, fp, record, sizeof record) || !record[1]) break;
        frames[n++] = record[1];
        if (record[0] <= fp) break;
        fp = record[0];
    }
    errno = saved_errno;
}

/* Record the executable's and libc's code mappings. */
static void find_text(void) {
    char exe[4096], line[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps) return;
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi;
        char perms[8], path[4096] = "";
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &lo, &hi, perms, path) < 3 || perms[2] != 'x')
            continue;
        if (!strcmp(path, exe) && n_exe < MAX_RANGES)
            exe_text[n_exe++] = (struct range){lo, hi};
        else if (strstr(path, "/libc.so") && n_libc < MAX_RANGES)
            libc_text[n_libc++] = (struct range){lo, hi};
    }
    fclose(maps);
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
    find_text();
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
    for (unsigned i = 0; i < n; i++) {
        for (int k = 0; k <= MAX_CALLERS && samples[i][k]; k++)
            fprintf(out, k ? " %lx" : "%lx", (unsigned long)samples[i][k]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
