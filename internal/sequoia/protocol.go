// Package sequoia reimplements the slice of the Sequoia database
// clustering middleware the paper builds on (§5.3): controllers that
// expose a virtual database over their own wire protocol, replicate
// writes across every backend of every controller in a group, load-
// balance reads, support backend disable/enable with journal-based
// resynchronization, and optionally embed a Drivolution server
// replicated across controllers (Figure 6).
//
// The controller protocol is Sequoia's own (§5.3.1): its frame types,
// hello and error codes. The statement and result payloads it carries
// under those frame types are the dbms ones, in sqlmini's shared codec
// (sqlmini.EncodeStatement, sqlmini.DecodeArgs, sqlmini.Result.Fields).
//
// Simplifications relative to the real Sequoia: total ordering of
// writes uses an in-process group sequencer rather than a group
// communication stack, and cross-controller replication applies
// statements in autocommit.
package sequoia

import (
	"fmt"

	"repro/internal/wire"
)

// Frame types of the Sequoia controller protocol. Deliberately distinct
// from the DBMS protocol: Sequoia has its own driver with its own
// compatibility axis ("Sequoia uses its own wire protocol between
// drivers and controllers", §5.3.1).
const (
	msgHello   uint16 = 0x0301
	msgHelloOK uint16 = 0x0302
	msgExec    uint16 = 0x0303
	msgResult  uint16 = 0x0304
	msgPing    uint16 = 0x0305
	msgPong    uint16 = 0x0306
	msgError   uint16 = 0x03FF
)

// protocolVersion is the controller protocol version every controller
// speaks; a driver that offers another is refused at connect time.
const protocolVersion uint16 = 1

// Error codes.
const (
	codeProtocolMismatch uint16 = iota + 1
	codeAuthFailed
	codeNoDatabase
	codeQueryError
	codeNoBackends
)

type helloMsg struct {
	ProtocolVersion uint16
	Database        string
	User            string
	Password        string
	ClientInfo      string
}

// Fields declares the msgHello layout, which msgHelloOK shares.
func (h *helloMsg) Fields(w wire.Walker) {
	w.Uint16(&h.ProtocolVersion)
	w.String(&h.Database)
	w.String(&h.User)
	w.String(&h.Password)
	w.String(&h.ClientInfo)
}

// errorMsg is msgError: a code and its message.
type errorMsg struct {
	Code    uint16
	Message string
}

func (m *errorMsg) Fields(w wire.Walker) {
	w.Uint16(&m.Code)
	w.String(&m.Message)
}

func fmtCode(code uint16, msg string) string {
	return fmt.Sprintf("sequoia: [%d] %s", code, msg)
}
