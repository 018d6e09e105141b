package crypt

// Zeroize overwrites b with zeros so key material does not linger on the
// heap after use. Go cannot promise the GC never copied the bytes (stack
// growth, append reallocation), so this bounds the exposure window rather
// than eliminating it — which is still the difference between a key that
// lives for microseconds and one that survives until the next GC cycle in a
// core dump or a swapped page.
//
// The shield-vet keyhygiene analyzer requires every local that receives
// derived key bytes (PBKDF2SHA256, HKDFSHA256, DEKFromBytes input) to be
// wiped with Zeroize or returned to the caller.
func Zeroize(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
