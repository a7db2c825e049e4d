// A CPU-time sampling profiler to load with LD_PRELOAD, for hosts without
// hardware performance counters. Every millisecond of the process's CPU
// time (ITIMER_PROF; the kernel may round the period up to its tick),
// SIGPROF records the interrupted instruction and the return addresses
// above it (glibc backtrace()). When the process exits it writes
// prof.<pid>.txt to its working directory: its executable mappings, each
// with the mapped file's size and modification time (so report.py can
// refuse a file rebuilt since), then one sample per line. report.py
// symbolizes that file.
//
//   cc -O2 -shared -fPIC -o sampler.so scripts/profile/sampler.c
//   LD_PRELOAD=$PWD/sampler.so ./build/bench/bench_fig14_pushdown
//   python3 scripts/profile/report.py prof.<pid>.txt
//
// The simulator runs on one OS thread, so the samples are that thread's.
// A process that leaves through _exit() writes nothing.

#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum {
  kDepth = 64,              // frames kept per sample
  kMaxSamples = 1 << 17,    // ~131 s of CPU time at 1 kHz
  kIntervalUs = 1000,
};

struct Sample {
  int depth;
  void* pc[kDepth];  // pc[0] is the interrupted instruction
};

static struct Sample* samples;  // kMaxSamples, touched only as used
static atomic_int taken;

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const int saved_errno = errno;
  const int i = atomic_fetch_add(&taken, 1);
  if (i < kMaxSamples) {
    struct Sample* s = &samples[i];
    void* pc = (void*)((ucontext_t*)context)->uc_mcontext.gregs[REG_RIP];
    void* frames[kDepth + 8];
    const int n = backtrace(frames, kDepth + 8);
    // The walk starts in this handler and the signal trampoline; the
    // interrupted code begins at `pc`. If the unwinder never reached it,
    // the sample keeps `pc` alone.
    int from = 0;
    while (from < n && frames[from] != pc) from++;
    s->pc[0] = pc;
    int depth = 1;
    for (int f = from + 1; f < n && depth < kDepth; ++f) {
      s->pc[depth++] = frames[f];
    }
    s->depth = depth;
  }
  errno = saved_errno;
}

__attribute__((constructor)) static void Start(void) {
  samples = mmap(NULL, sizeof(struct Sample) * kMaxSamples,
                 PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (samples == MAP_FAILED) {
    samples = NULL;
    return;
  }
  // backtrace() loads the unwinder on its first call, which must not
  // happen inside a signal handler.
  void* warm[2];
  backtrace(warm, 2);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every = {{0, kIntervalUs}, {0, kIntervalUs}};
  setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void Finish(void) {
  if (samples == NULL) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);

  char path[64];
  snprintf(path, sizeof path, "prof.%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("sampler: fopen");
    return;
  }
  fprintf(out,
          "# map START END FILE_OFFSET SIZE MTIME_NS PATH, then s PC PC...\n");
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof line, maps) != NULL) {
    unsigned long lo, hi, offset;
    char perms[8];
    int path_at = 0;
    if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &lo, &hi, perms, &offset,
               &path_at) < 4 ||
        path_at == 0 || perms[2] != 'x' || line[path_at] != '/') {
      continue;
    }
    line[strcspn(line, "\n")] = '\0';
    // A file that cannot be stat'ed (deleted since it was mapped) is
    // stamped -1, which matches no file report.py can find.
    struct stat st;
    long long size = -1, mtime_ns = -1;
    if (stat(line + path_at, &st) == 0) {
      size = (long long)st.st_size;
      mtime_ns = (long long)st.st_mtim.tv_sec * 1000000000LL +
                 st.st_mtim.tv_nsec;
    }
    fprintf(out, "map %lx %lx %lx %lld %lld %s\n", lo, hi, offset, size,
            mtime_ns, line + path_at);
  }
  if (maps != NULL) fclose(maps);
  int n = atomic_load(&taken);
  const int dropped = n > kMaxSamples ? n - kMaxSamples : 0;
  if (n > kMaxSamples) n = kMaxSamples;
  for (int i = 0; i < n; ++i) {
    fputc('s', out);
    for (int f = 0; f < samples[i].depth; ++f) {
      fprintf(out, " %lx", (unsigned long)(uintptr_t)samples[i].pc[f]);
    }
    fputc('\n', out);
  }
  fclose(out);
  fprintf(stderr, "sampler: %d samples (%d dropped) in %s\n", n, dropped,
          path);
}
