/* Instruction-pointer sampler, loaded into a program with LD_PRELOAD.

   Every INTERVAL_US microseconds of the process's CPU time (ITIMER_PROF)
   a SIGPROF handler records the interrupted instruction pointer. At exit the library writes two files, PREFIX.PID.ips (one
   hexadecimal address per line) and PREFIX.PID.maps (a copy of
   /proc/self/maps), where PREFIX is IPSAMPLE_OUT (default "ipsample").
   tools/ipsample.py turns them into a table of symbols.

   Build and use (x86-64 Linux):

     cc -O2 -shared -fPIC -o ipsample.so tools/ipsample.c
     LD_PRELOAD=$PWD/ipsample.so IPSAMPLE_OUT=/tmp/ips PROGRAM ARGS...
     python3 tools/ipsample.py /tmp/ips.*.ips

   The timer is process-wide, so the samples of every thread land in one
   buffer. The kernel delivers ITIMER_PROF at its tick, so the real
   interval can be several times INTERVAL_US; a process that exits
   through a signal or _exit writes nothing. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
#define INTERVAL_US 1000

static unsigned long samples[MAX_SAMPLES];
static unsigned long n_samples;
static unsigned long n_dropped;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
  (void)sig;
  (void)info;
  unsigned long ip = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
  unsigned long k = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
  if (k < MAX_SAMPLES)
    samples[k] = ip;
  else
    __atomic_fetch_add(&n_dropped, 1, __ATOMIC_RELAXED);
}

static void copy_file(const char *from, const char *to) {
  FILE *in = fopen(from, "r");
  FILE *out = fopen(to, "w");
  char buf[4096];
  size_t n;
  if (in && out)
    while ((n = fread(buf, 1, sizeof buf, in)) > 0) fwrite(buf, 1, n, out);
  if (in) fclose(in);
  if (out) fclose(out);
}

__attribute__((destructor)) static void ipsample_stop(void) {
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  const char *prefix = getenv("IPSAMPLE_OUT");
  if (!prefix || !*prefix) prefix = "ipsample";
  char path[4096];
  snprintf(path, sizeof path, "%s.%d.maps", prefix, (int)getpid());
  copy_file("/proc/self/maps", path);
  snprintf(path, sizeof path, "%s.%d.ips", prefix, (int)getpid());
  FILE *out = fopen(path, "w");
  if (!out) return;
  unsigned long n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
  for (unsigned long k = 0; k < n; k++) fprintf(out, "%lx\n", samples[k]);
  fclose(out);
  if (n_dropped)
    fprintf(stderr, "ipsample: buffer full, %lu samples dropped\n", n_dropped);
}

__attribute__((constructor)) static void ipsample_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = INTERVAL_US;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}
