// hostprof: a wall-clock sampling profiler for one thread, loaded with
// LD_PRELOAD. A CLOCK_MONOTONIC timer signals the main thread at
// HOSTPROF_HZ (default 10 000) per second; the handler walks the frame
// pointers and appends the stack to HOSTPROF_OUT (default hostprof.out)
// as native u64 words: depth, then the pc and return addresses. At exit
// it copies /proc/self/maps to HOSTPROF_OUT.maps for report.py.
#define _GNU_SOURCE
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>
#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

enum { DEPTH = 48, WORDS = 1 << 16 };
static uint64_t buf[WORDS];
static size_t used;
static int fd = -1;
static timer_t timer;
static uintptr_t stack_lo, stack_hi;
static char out_path[4096];

static void flush(void) {
    if (used) write(fd, buf, used * sizeof buf[0]);
    used = 0;
}

static void on_tick(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    mcontext_t *mc = &((ucontext_t *)ctx)->uc_mcontext;
    uint64_t frames[DEPTH];
    size_t n = 0;
    frames[n++] = mc->gregs[REG_RIP];
    uintptr_t fp = mc->gregs[REG_RBP];
    while (n < DEPTH && fp % 8 == 0 && fp >= stack_lo && fp + 16 <= stack_hi) {
        uintptr_t *frame = (uintptr_t *)fp;
        frames[n++] = frame[1];
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    if (used + n + 1 > WORDS) flush();
    buf[used++] = n;
    for (size_t i = 0; i < n; i++) buf[used++] = frames[i];
}

__attribute__((constructor)) static void start(void) {
    const char *out = getenv("HOSTPROF_OUT");
    const char *hz = getenv("HOSTPROF_HZ");
    long rate = hz ? atol(hz) : 10000;
    size_t i = 0;
    for (const char *s = out ? out : "hostprof.out"; *s && i + 6 < sizeof out_path; s++)
        out_path[i++] = *s;
    fd = open(out_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pthread_attr_t attr;
    void *lo;
    size_t size;
    if (fd < 0 || rate <= 0 || pthread_getattr_np(pthread_self(), &attr)) return;
    pthread_attr_getstack(&attr, &lo, &size);
    stack_lo = (uintptr_t)lo, stack_hi = stack_lo + size;
    struct sigaction sa = {.sa_sigaction = on_tick, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_THREAD_ID, .sigev_signo = SIGPROF};
    ev.sigev_notify_thread_id = gettid();
    struct itimerspec every = {{0, 1000000000L / rate}, {0, 1000000000L / rate}};
    if (timer_create(CLOCK_MONOTONIC, &ev, &timer) == 0) timer_settime(timer, 0, &every, NULL);
}

__attribute__((destructor)) static void stop(void) {
    if (fd < 0) return;
    sigset_t prof;
    sigemptyset(&prof);
    sigaddset(&prof, SIGPROF);
    sigprocmask(SIG_BLOCK, &prof, NULL);
    timer_delete(timer);
    flush();
    close(fd);
    char path[sizeof out_path];
    size_t i = 0;
    for (; out_path[i]; i++) path[i] = out_path[i];
    const char ext[] = ".maps";
    for (size_t j = 0; j < sizeof ext; j++) path[i + j] = ext[j];
    int in = open("/proc/self/maps", O_RDONLY), maps = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    char chunk[4096];
    ssize_t got;
    while (in >= 0 && maps >= 0 && (got = read(in, chunk, sizeof chunk)) > 0) write(maps, chunk, got);
    close(in), close(maps);
}
