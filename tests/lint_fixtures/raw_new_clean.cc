// corm-raw-new fixture: clean control — placement new, deleted functions,
// operator declarations, and comment/string mentions must all stay silent.
// The old grep rule false-positived on several of these.
#include <cstddef>

struct Pod {
  int x = 0;

  // Deleted functions are not delete expressions.
  Pod(const Pod&) = delete;
  Pod& operator=(const Pod&) = delete;

  // Allocation-function *declarations* are not allocation sites.
  static void* operator new(std::size_t size);
  static void operator delete(void* p);
};

// Placement new constructs in place; it does not allocate.
Pod* ConstructAt(void* buf) {
  return new (buf) Pod;
}

// Comment mentions must not fire: we could new Foo() here, or delete p.
/* Block comments either: new Pod[8]; delete[] arr; */
const char* Describe() {
  return "new Pod() and delete p inside a string literal";
}

// Identifiers that merely start with `delete` are not delete expressions.
struct Mix {
  double delete_fraction = 0.0;
};
bool WantsDelete(const Mix& m, double draw) {
  return m.delete_fraction > 0.0 && draw < m.delete_fraction;
}
