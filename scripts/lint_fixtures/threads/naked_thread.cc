// Fixture for lint rule 4 (naked-thread): spawning a raw std::thread
// anywhere must trip the lint.
#include <thread>

void SpawnWorker() {
  std::thread worker([] {});
  worker.join();
}
