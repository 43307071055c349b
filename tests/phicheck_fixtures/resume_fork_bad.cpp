// phicheck fixture: resume-server violations — a serve loop whose child
// should return to its caller and resume the interrupted run.
#include <stdlib.h>
#include <unistd.h>

namespace fixture {

void* scratch;

// phicheck:fork-child-entry
void trial_setup() {}

// phicheck:fork-resume
void falls_back_server() {
  while (true) {
    const int pid = fork();
    if (pid == 0) {
      trial_setup();  // no return: the child falls back into the loop
    }
  }
}

// phicheck:fork-resume
void allocating_server() {
  while (true) {
    const int pid = fork();
    if (pid == 0) {
      scratch = malloc(16);  // heap before the run resumes
      trial_setup();
      return;
    }
  }
}

}  // namespace fixture
