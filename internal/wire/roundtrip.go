package wire

import (
	"bytes"

	"dqmx/internal/mutex"
)

// RoundTrip encodes env through one fresh encoder/decoder pair and returns
// the decoded result. It exists for tests — the round-trip checks and the
// codec fuzzer — so they need not plumb buffers and stream state themselves.
func RoundTrip(env mutex.Envelope) (mutex.Envelope, error) {
	var buf bytes.Buffer
	enc := Binary().NewEncoder(&buf)
	err := enc.Encode(env)
	enc.Close()
	if err != nil {
		return mutex.Envelope{}, err
	}
	dec := Binary().NewDecoder(&buf)
	defer dec.Close()
	return dec.Decode()
}
