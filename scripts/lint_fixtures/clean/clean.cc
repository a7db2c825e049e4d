// Lint fixture: a file none of the lint rules may flag.
namespace fixture {
struct Status {
  bool ok() const { return true; }
};
Status DoWork();

int Clean() {
  std::thread* waived = nullptr;  // thread-ok: fixture for the rule-4 waiver
  (void)waived;
  int unused = 0;
  (void)unused;  // plain variable silencing: not a discarded call
  // discard-ok: best-effort call in a fixture.
  (void)DoWork();
  // Prose may name swapcontext; only the header or a call trips rule 5.
  // Prose may name std::mutex too; only a declaration trips rule 6.
  // Waiver(thread-annotations): fixture for the rule-6 waiver.
  static std::mutex waived_mu;
  std::lock_guard<std::mutex> lk(waived_mu);
  return 0;
}
}  // namespace fixture
