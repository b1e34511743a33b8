/*
 * sigprof.c - a sampling profiler for boxes without `perf`.
 *
 * An LD_PRELOAD library: its constructor installs a SIGPROF handler and arms
 * ITIMER_PROF, so the kernel interrupts the process every few milliseconds
 * of CPU time it uses (user + system, all threads); the handler stores the
 * interrupted instruction pointer. At exit it writes /proc/self/maps and the
 * samples to one text file that scripts/sigprof-report.py turns into
 * per-symbol and per-instruction shares.
 *
 * Build (nothing in the workspace or CI needs it):
 *
 *     gcc -O2 -shared -fPIC -o /tmp/sigprof.so scripts/sigprof.c
 *
 * Run, then report:
 *
 *     SIGPROF_OUT=/tmp/bare.prof LD_PRELOAD=/tmp/sigprof.so \
 *         ./eden-perf --workload bare-forward --seed 7 --seconds 20
 *     scripts/sigprof-report.py ./eden-perf /tmp/bare.prof
 *     scripts/sigprof-report.py ./eden-perf /tmp/bare.prof --symbol process_dir
 *
 * Environment:
 *     SIGPROF_OUT    output file (default ./sigprof.out; "%p" becomes the pid)
 *     SIGPROF_HZ     requested sampling rate (default 1000)
 *     SIGPROF_DEPTH  frames per sample (default 1: the interrupted
 *                    instruction only; up to 8). Above 1 the handler also
 *                    records the return addresses glibc's backtrace() finds
 *                    above it, which `sigprof-report.py --callers` uses to
 *                    charge a sample that landed in libc (memset, memcpy,
 *                    malloc) to the function of the binary that called in.
 *     SIGPROF_ALLOCS  1: also wrap malloc, calloc and realloc, and count the
 *                    bytes requested and the calls per call stack (up to 8
 *                    frames) for every request of at least 2 KiB; the
 *                    sampler runs as without it. `sigprof-report.py
 *                    --allocs` lists the stacks by bytes. Large requests are
 *                    where a process's heap grows and shrinks and where its
 *                    minor page faults come from; small ones it recycles.
 *                    Each counted request pays a backtrace() (libgcc's
 *                    unwinder), so the samples of such a run are not the
 *                    program's own shares.
 *
 * Every run also records the process's minor and major page faults
 * (getrusage at exit), which the report prints first.
 *
 * Reading the numbers:
 *   - The tick is the kernel's (250 Hz on the boxes this was written on)
 *     whatever rate is asked for: a 20 s run gives about 5,000 samples per
 *     busy thread, so shares below ~0.5 % are a handful of samples.
 *   - A sample sits on the instruction *after* the one that stalled:
 *     usually the first use of a load that missed.
 *   - The timer counts CPU time of the whole process, so a spinning worker
 *     thread shows up with its own samples (that is how the idle lane
 *     workers were found); wall-clock waits do not show at all.
 *   - Build the profiled binary with symbols (`strip = "none"` or the
 *     release default, which keeps the symbol table) and profile the same
 *     file you hand to the report.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 18) /* 17 minutes of one busy thread at 250 Hz */
#define MAX_DEPTH 8
/* the handler's own frame and the signal trampoline sit below the
 * interrupted one in what backtrace() returns */
#define HANDLER_FRAMES 4

/* One row per sample: the interrupted pc, then its callers, 0-terminated.
 * Static, so never-touched rows cost no memory. */
static uintptr_t samples[MAX_SAMPLES][MAX_DEPTH];
static volatile uint32_t next_sample;
static volatile uint32_t lost;
static int depth = 1;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    ucontext_t *uc = (ucontext_t *)ctx;
#if defined(__x86_64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sigprof.c: add the program-counter register of this architecture"
#endif
    uint32_t i = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) {
        __atomic_fetch_add(&lost, 1, __ATOMIC_RELAXED);
        return;
    }
    uintptr_t *row = samples[i];
    row[0] = pc;
    if (depth == 1)
        return;
    /* the frames above the interrupted one: backtrace() walks from here, so
     * skip up to and including the frame whose address is `pc` */
    void *frames[MAX_DEPTH + HANDLER_FRAMES];
    int n = backtrace(frames, depth + HANDLER_FRAMES);
    int at = 0;
    while (at < n && (uintptr_t)frames[at] != pc)
        at++;
    for (int d = 1; d < depth && at + d < n; d++)
        row[d] = (uintptr_t)frames[at + d];
}

/* ---- allocation mode (SIGPROF_ALLOCS=1) ---------------------------------- */

#define ALLOC_MIN 2048
#define ALLOC_SITES (1u << 14)
/* backtrace() from inside the wrapper starts at note_alloc and the wrapper */
#define WRAPPER_FRAMES 2

/* glibc's own entry points, so the wrappers need no dlsym (which allocates) */
extern void *__libc_malloc(size_t n);
extern void *__libc_calloc(size_t count, size_t n);
extern void *__libc_realloc(void *p, size_t n);

/* One call stack that made large requests: return addresses, 0-padded. */
struct site {
    uintptr_t stack[MAX_DEPTH];
    uint64_t bytes;
    uint64_t calls;
};
static struct site sites[ALLOC_SITES];
static uint32_t sites_used;
static uint64_t sites_lost; /* requests whose stack found the table full */
static volatile int allocs; /* set once the constructor has read the switch */
static volatile char sites_lock;
/* recursion guard: backtrace() allocates when it first loads libgcc */
static __thread int in_hook __attribute__((tls_model("initial-exec")));

static __attribute__((noinline)) void note_alloc(size_t n) {
    if (!allocs || n < ALLOC_MIN || in_hook)
        return;
    in_hook = 1;
    void *frames[MAX_DEPTH + WRAPPER_FRAMES];
    int got = backtrace(frames, MAX_DEPTH + WRAPPER_FRAMES) - WRAPPER_FRAMES;
    uintptr_t stack[MAX_DEPTH] = {0};
    uint64_t h = 1469598103934665603ull; /* FNV-1a over the frames */
    for (int d = 0; d < got; d++) {
        stack[d] = (uintptr_t)frames[d + WRAPPER_FRAMES];
        h = (h ^ stack[d]) * 1099511628211ull;
    }
    while (__atomic_test_and_set(&sites_lock, __ATOMIC_ACQUIRE))
        ;
    uint32_t i = (uint32_t)h & (ALLOC_SITES - 1);
    for (uint32_t probes = 0;; probes++, i = (i + 1) & (ALLOC_SITES - 1)) {
        struct site *s = &sites[i];
        if (probes == ALLOC_SITES) {
            sites_lost++;
            break;
        }
        if (s->calls == 0) {
            memcpy(s->stack, stack, sizeof stack);
            sites_used++;
        } else if (memcmp(s->stack, stack, sizeof stack) != 0) {
            continue;
        }
        s->bytes += n;
        s->calls++;
        break;
    }
    __atomic_clear(&sites_lock, __ATOMIC_RELEASE);
    in_hook = 0;
}

void *malloc(size_t n) {
    note_alloc(n);
    return __libc_malloc(n);
}

void *calloc(size_t count, size_t n) {
    note_alloc(count * n);
    return __libc_calloc(count, n);
}

void *realloc(void *p, size_t n) {
    note_alloc(n);
    return __libc_realloc(p, n);
}

/* ---- the sampler ---------------------------------------------------------- */

static void arm(long interval_us) {
    struct itimerval t;
    t.it_interval.tv_sec = 0;
    t.it_interval.tv_usec = interval_us;
    t.it_value = t.it_interval;
    setitimer(ITIMER_PROF, &t, NULL);
}

__attribute__((constructor)) static void sigprof_start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;
    const char *frames = getenv("SIGPROF_DEPTH");
    if (frames)
        depth = atoi(frames);
    if (depth < 1 || depth > MAX_DEPTH)
        depth = 1;
    const char *want_allocs = getenv("SIGPROF_ALLOCS");
    int alloc_mode = want_allocs && atoi(want_allocs) == 1;
    if (depth > 1 || alloc_mode) {
        /* backtrace() loads libgcc on its first call, which a signal
         * handler must not do, and which allocates: make that call here */
        void *warm[2];
        in_hook = 1;
        backtrace(warm, 2);
        in_hook = 0;
    }
    allocs = alloc_mode;
    const char *hz = getenv("SIGPROF_HZ");
    long rate = hz ? atol(hz) : 1000;
    if (rate < 1 || rate > 1000000)
        rate = 1000;
    arm(1000000 / rate);
}

__attribute__((destructor)) static void sigprof_stop(void) {
    arm(0); /* a zero it_value disarms the timer */
    int counted = allocs;
    allocs = 0; /* what writing the file allocates is not the program's */
    uint32_t n = next_sample < MAX_SAMPLES ? next_sample : MAX_SAMPLES;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);

    char path[4096];
    const char *want = getenv("SIGPROF_OUT");
    if (!want)
        want = "sigprof.out";
    const char *pid = strstr(want, "%p");
    if (pid)
        snprintf(path, sizeof path, "%.*s%d%s", (int)(pid - want), want, (int)getpid(), pid + 2);
    else
        snprintf(path, sizeof path, "%s", want);

    FILE *out = fopen(path, "w");
    if (!out) {
        perror("sigprof: cannot write samples");
        return;
    }
    fprintf(out, "# sigprof 1: %u samples, %u lost\n# maps\n", n, lost);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    fputs("# samples\n", out);
    for (uint32_t i = 0; i < n; i++) {
        fprintf(out, "%lx", (unsigned long)samples[i][0]);
        for (int d = 1; d < depth && samples[i][d]; d++)
            fprintf(out, " %lx", (unsigned long)samples[i][d]);
        fputc('\n', out);
    }
    fprintf(out, "# faults %ld minor %ld major\n", ru.ru_minflt, ru.ru_majflt);
    if (counted) {
        /* one line per stack: bytes, calls, then the return addresses */
        fprintf(out, "# allocs %u stacks of requests >= %d bytes, %lu requests lost\n",
                sites_used, ALLOC_MIN, (unsigned long)sites_lost);
        for (uint32_t i = 0; i < ALLOC_SITES; i++) {
            struct site *s = &sites[i];
            if (s->calls == 0)
                continue;
            fprintf(out, "%lu %lu", (unsigned long)s->bytes, (unsigned long)s->calls);
            for (int d = 0; d < MAX_DEPTH && s->stack[d]; d++)
                fprintf(out, " %lx", (unsigned long)s->stack[d]);
            fputc('\n', out);
        }
    }
    fclose(out);
}
