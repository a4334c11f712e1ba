/* A SIGPROF stack sampler, loaded with LD_PRELOAD (see scripts/profile.sh).
 * Every 100 us of process CPU time it walks the interrupted thread's frame
 * pointers and appends one line of hex addresses, innermost first, to the
 * file named by $SAMPLER_OUT. The first line is the main program's load
 * bias, for symbolising a position-independent executable. */
#define _GNU_SOURCE
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

static int out = -1;

static int hex(char *p, uintptr_t v) {
    char tmp[16];
    int n = 0, i = 0;
    do tmp[n++] = "0123456789abcdef"[v & 15]; while (v >>= 4);
    while (n) p[i++] = tmp[--n];
    p[i++] = ' ';
    return i;
}

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t sp = r[REG_RSP], *fp = (uintptr_t *)r[REG_RBP];
    char line[64 * 17 + 1];
    int n = hex(line, r[REG_RIP]);
    /* Follow frames only upwards within 8MB of the stack pointer, so a
     * register that holds no frame pointer ends the walk. */
    for (int depth = 0; depth < 63; depth++) {
        uintptr_t f = (uintptr_t)fp;
        if (f < sp || f - sp > (8u << 20) || f % 8 || !fp[1]) break;
        n += hex(line + n, fp[1]);
        if (fp[0] <= f) break;
        fp = (uintptr_t *)fp[0];
    }
    line[n - 1] = '\n';
    (void)!write(out, line, n);
}

static int first_object(struct dl_phdr_info *info, size_t size, void *bias) {
    (void)size;
    *(uintptr_t *)bias = info->dlpi_addr;
    return 1;
}

__attribute__((constructor)) static void start(void) {
    const char *path = getenv("SAMPLER_OUT");
    if (!path || (out = open(path, O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644)) < 0) return;
    uintptr_t bias = 0;
    dl_iterate_phdr(first_object, &bias);
    dprintf(out, "bias %lx\n", (unsigned long)bias);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct sigevent ev = {.sigev_notify = SIGEV_SIGNAL, .sigev_signo = SIGPROF};
    timer_t timer;
    struct itimerspec every = {{0, 100000}, {0, 100000}};
    if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) == 0)
        timer_settime(timer, 0, &every, NULL);
}
