// Package sequoia reimplements the slice of the Sequoia database
// clustering middleware the paper builds on (§5.3): controllers that
// expose a virtual database over their own wire protocol, replicate
// writes across every backend of every controller in a group, load-
// balance reads, support backend disable/enable with journal-based
// resynchronization, and optionally embed a Drivolution server
// replicated across controllers (Figure 6).
//
// Simplifications relative to the real Sequoia: total ordering of
// writes uses an in-process group sequencer rather than a group
// communication stack, and cross-controller replication applies
// statements in autocommit.
package sequoia

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/sqlmini"
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

type execMsg struct {
	SQL        string
	Named      map[string]sqlmini.Value
	Positional []sqlmini.Value
}

// encode writes the SQL, the named arguments in key order, so a
// statement has exactly one wire form, then the positional ones.
func (m execMsg) encode() []byte {
	e := wire.NewEncoder(256)
	e.String(m.SQL)
	e.Uint32(uint32(len(m.Named)))
	for _, k := range slices.Sorted(maps.Keys(m.Named)) {
		e.String(k)
		sqlmini.EncodeValue(e, m.Named[k])
	}
	e.Uint32(uint32(len(m.Positional)))
	for _, v := range m.Positional {
		sqlmini.EncodeValue(e, v)
	}
	return e.Bytes()
}

// decodeExec reads a msgExec payload: a named argument takes at least
// its 4-byte key length and a value type byte, a positional one its
// type byte.
func decodeExec(b []byte) (m execMsg, err error) {
	d := wire.NewDecoder(b)
	m.SQL = d.String()
	n := d.Count(5)
	if n > 0 {
		m.Named = make(map[string]sqlmini.Value, n)
	}
	for i := 0; i < n; i++ {
		k := d.String()
		if m.Named[k], err = sqlmini.DecodeValue(d); err != nil {
			return m, err
		}
	}
	n = d.Count(1)
	for i := 0; i < n; i++ {
		v, err := sqlmini.DecodeValue(d)
		if err != nil {
			return m, err
		}
		m.Positional = append(m.Positional, v)
	}
	return m, d.Err()
}

func encodeResult(cols []string, rows [][]sqlmini.Value, affected int) []byte {
	e := wire.NewEncoder(256)
	e.StringSlice(cols)
	e.Uint32(uint32(len(rows)))
	for _, row := range rows {
		e.Uint32(uint32(len(row)))
		for _, v := range row {
			sqlmini.EncodeValue(e, v)
		}
	}
	e.Int64(int64(affected))
	return e.Bytes()
}

// decodeResult reads a msgResult payload: a row takes at least its
// 4-byte column count, a value its type byte.
func decodeResult(b []byte) (cols []string, rows [][]sqlmini.Value, affected int, err error) {
	d := wire.NewDecoder(b)
	cols = d.StringSlice()
	n := d.Count(4)
	for i := 0; i < n; i++ {
		row := make([]sqlmini.Value, d.Count(1))
		for j := range row {
			if row[j], err = sqlmini.DecodeValue(d); err != nil {
				return nil, nil, 0, err
			}
		}
		rows = append(rows, row)
	}
	affected = int(d.Int64())
	return cols, rows, affected, d.Err()
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
