// Fixture for the ambiguity analyzer: ErrStatementNotSent before any
// write and in the firing statement's own error branch is legal; after
// a send may have fired it is a finding unless errors.Is-tested or
// annotated.
package fixture

import (
	"errors"
	"fmt"
)

// ErrStatementNotSent mirrors client.ErrStatementNotSent; the analyzer
// matches the sentinel by name so fixtures stay self-contained.
var ErrStatementNotSent = errors.New("statement not sent")

type conn struct{}

func (c *conn) Send(b []byte) error   { return nil }
func (c *conn) Recv() ([]byte, error) { return nil, nil }
func (c *conn) Close() error          { return nil }

func beforeAnyWrite(c *conn, req []byte) error {
	if len(req) == 0 {
		return ErrStatementNotSent // nothing fired yet: no finding
	}
	return c.Send(req)
}

func canonicalErrorBranch(c *conn, req []byte) error {
	if err := c.Send(req); err != nil {
		// The firing statement's own error check: Send failing proves
		// the frame never flushed, so this is the provably-unsent path.
		return fmt.Errorf("%w: %v", ErrStatementNotSent, err)
	}
	return nil
}

func afterReplyError(c *conn, req []byte) error {
	if err := c.Send(req); err != nil {
		return err
	}
	if _, err := c.Recv(); err != nil {
		return fmt.Errorf("%w: %v", ErrStatementNotSent, err) // want "ambiguity: ErrStatementNotSent constructed after a write"
	}
	return nil
}

func testingIsExempt(c *conn, req []byte) error {
	err := c.Send(req)
	if errors.Is(err, ErrStatementNotSent) { // errors.Is tests, not produces: no finding
		return nil
	}
	return err
}

func firingHelper(c *conn, req []byte) error {
	return c.Send(req)
}

func throughHelper(c *conn, req []byte) error {
	if err := firingHelper(c, req); err != nil {
		return err
	}
	return ErrStatementNotSent // want "ambiguity: ErrStatementNotSent constructed after a write"
}

func annotatedSite(c *conn, req []byte) error {
	if err := c.Send(req); err != nil {
		return err
	}
	//lint:ambiguity-ok fixture: pretend unsentness is re-proven here
	return ErrStatementNotSent
}

func closureOwnTimeline(c *conn, req []byte) func() error {
	if err := c.Send(req); err != nil {
		return nil
	}
	return func() error {
		return ErrStatementNotSent // closures run on a fresh timeline: no finding
	}
}
