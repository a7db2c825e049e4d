// Fixture for lint rule 5 (ucontext-switch): a glibc context switch saves
// and restores the signal mask, one system call per switch.
#include <ucontext.h>

void SwitchAway(ucontext_t* from, ucontext_t* to) { swapcontext(from, to); }
